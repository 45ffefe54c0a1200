package alloc

// ForceNaive switches d to the reference implementation (full Eq. 17 sweep
// per proposal, fresh buffers per round) and returns d for chaining.
func (d *DMRA) ForceNaive() *DMRA {
	d.naive = true
	return d
}
