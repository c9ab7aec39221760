package mem

import "slices"

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

// CollectDirty returns the sorted indices of pages written since tracking
// started (or since the last ClearSoftDirty). It does not clear the set.
func (as *AddressSpace) CollectDirty() []uint64 {
	out := make([]uint64, 0, len(as.dirty))
	for idx := range as.dirty {
		out = append(out, idx)
	}
	slices.Sort(out)
	return out
}

// Dirty reports whether page idx was written since tracking started (or
// since the last ClearSoftDirty).
func (as *AddressSpace) Dirty(idx uint64) bool { return as.dirty[idx] }

// ClearSoftDirty resets every page's soft-dirty bit; tracking stays in
// whatever state it was.
func (as *AddressSpace) ClearSoftDirty() {
	if as.tracking {
		as.dirty = make(map[uint64]bool)
		as.flushTLB()
	}
}

// markDirty records a store into page idx while tracking is enabled. A
// store that hits the write TLB skips it: its entry was made after the
// page was marked, and clearing the marks flushes the TLB.
func (as *AddressSpace) markDirty(idx uint64) {
	if as.tracking {
		as.dirty[idx] = true
	}
}
