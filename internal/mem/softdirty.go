package mem

// Soft-dirty page tracking, the simulator's analog of Linux's
// /proc/<pid>/clear_refs + pagemap soft-dirty bits that CRIU's --track-mem
// builds incremental dumps on. While tracking is enabled, every store that
// goes through the address space (the interpreters' only write path) marks
// its page dirty; the dumper collects the dirty set to decide which pages
// changed since the parent checkpoint.

// StartDirtyTracking enables soft-dirty tracking and clears the dirty set,
// as if every page's soft-dirty bit had just been reset.
func (as *AddressSpace) StartDirtyTracking() {
	as.tracking = true
	as.dirty = make(map[uint64]bool)
	as.flushTLB()
}

// StopDirtyTracking disables tracking and discards the dirty set.
func (as *AddressSpace) StopDirtyTracking() {
	as.tracking = false
	as.dirty = nil
	as.flushTLB()
}

// DirtyTracking reports whether soft-dirty tracking is active.
func (as *AddressSpace) DirtyTracking() bool { return as.tracking }

// Dirty reports whether page idx was written since tracking started.
func (as *AddressSpace) Dirty(idx uint64) bool { return as.dirty[idx] }

// markDirty records a store into page idx while tracking is enabled. A
// store that hits the write TLB skips it: its entry was made after the
// page was marked, and clearing the marks flushes the TLB.
func (as *AddressSpace) markDirty(idx uint64) {
	if as.tracking {
		as.dirty[idx] = true
	}
}
