package sim

// Resource and pool queries only the tests make.

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Reset returns the resource to the idle state at virtual time zero.
func (r *Resource) Reset() {
	r.freeAt, r.busy, r.ops = 0, 0, 0
}

// Reset resets every member.
func (p *Pool) Reset() {
	for _, m := range p.members {
		m.Reset()
	}
}

// MaxFreeAt returns the latest FreeAt over all members — the virtual time at
// which the whole pool has drained.
func (p *Pool) MaxFreeAt() VTime {
	var t VTime
	for _, m := range p.members {
		if f := m.FreeAt(); f > t {
			t = f
		}
	}
	return t
}
