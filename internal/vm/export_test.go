package vm

// SlowFetches reports how many fetches left the predecoded tables: page
// entries, revalidations, first decodes and page-straddling instructions.
func (m *Machine) SlowFetches() uint64 { return m.slowFetches }
