package vm

// SlowFetches reports how many fetches left the predecoded tables: page
// entries, revalidations, first decodes and page-straddling instructions.
func (m *Machine) SlowFetches() uint64 { return m.slowFetches }

// Fetch decodes the instruction at pc into the machine's tables, as Run's
// first fetch of pc does.
func (m *Machine) Fetch(pc uint64) error {
	_, err := m.fetchSlow(pc)
	return err
}
