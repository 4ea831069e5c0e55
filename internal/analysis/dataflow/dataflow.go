// Package dataflow solves iterative dataflow problems over the
// control-flow graphs of internal/analysis/cfg: a generic worklist
// solver parameterized by the client's lattice (join, equality,
// transfer), plus the set-shaped facts its clients, coordcontract and
// waitcycle, share. The solver
// propagates forward, along control flow, and is deliberately simple:
// analyzer inputs are single function bodies, where a round-robin
// worklist converges in a handful of passes.
//
// Must-properties ("the mutex is held on every path") and
// may-properties ("some path acquires shard i first") differ only in
// the client's Join: intersection joins yield must facts, unions yield
// may facts. Blocks never reached by propagation keep no facts at all —
// the solver only seeds the boundary block — so clients skip
// unreachable code by construction instead of modelling a TOP element.
package dataflow

import "atomio/internal/analysis/cfg"

// Spec describes one dataflow problem over fact type F.
type Spec[F any] struct {
	// Boundary is the fact entering the entry block.
	Boundary F
	// Join combines the fact arriving over one more edge into acc. It
	// must not mutate src; it may mutate and return acc.
	Join func(acc, src F) F
	// Equal reports whether two facts are equal (fixpoint detection).
	Equal func(a, b F) bool
	// Transfer computes the fact leaving block b given the fact
	// entering it. The solver passes a private copy: Transfer may
	// mutate in and return it.
	Transfer func(b *cfg.Block, in F) F
	// EdgeTransfer, if non-nil, refines the fact flowing along the
	// from→to edge (from's out fact). Branch-aware clients use it to
	// learn the condition on the taken edge: for a block with Cond != nil,
	// Succs[0] is the true edge and Succs[1] the false edge. It must not
	// mutate the input fact.
	EdgeTransfer func(from, to *cfg.Block, f F) F
	// Copy clones a fact so Join/Transfer may mutate their accumulator
	// safely. Required.
	Copy func(F) F
}

// Result carries the solved facts: In[b] is the fact at block b's entry,
// Out[b] the fact after b's transfer. Blocks never reached by
// propagation are absent from both maps.
type Result[F any] struct {
	In  map[*cfg.Block]F
	Out map[*cfg.Block]F
}

// Solve runs the worklist to fixpoint and returns the per-block facts.
func Solve[F any](g *cfg.Graph, s Spec[F]) *Result[F] {
	res := &Result[F]{
		In:  make(map[*cfg.Block]F),
		Out: make(map[*cfg.Block]F),
	}
	res.In[g.Entry] = s.Copy(s.Boundary)
	work := []*cfg.Block{g.Entry}
	inWork := map[*cfg.Block]bool{g.Entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false

		out := s.Transfer(b, s.Copy(res.In[b]))
		res.Out[b] = out
		for _, nb := range b.Succs {
			flow := out
			if s.EdgeTransfer != nil {
				flow = s.EdgeTransfer(b, nb, out)
			}
			old, seen := res.In[nb]
			var merged F
			if !seen {
				merged = s.Copy(flow)
			} else {
				merged = s.Join(s.Copy(old), flow)
			}
			if seen && s.Equal(old, merged) {
				continue
			}
			res.In[nb] = merged
			if !inWork[nb] {
				work = append(work, nb)
				inWork[nb] = true
			}
		}
	}
	return res
}

// --- common fact shapes ---

// Set is a fact shaped as a set of comparable elements, with the join
// flavours the analyzers use.
type Set[E comparable] map[E]bool

// CopySet clones a set fact.
func CopySet[E comparable](s Set[E]) Set[E] {
	out := make(Set[E], len(s))
	for e := range s {
		out[e] = true
	}
	return out
}

// EqualSets reports set equality.
func EqualSets[E comparable](a, b Set[E]) bool {
	if len(a) != len(b) {
		return false
	}
	for e := range a {
		if !b[e] {
			return false
		}
	}
	return true
}

// Union joins two set facts as a may-property (any path).
func Union[E comparable](acc, src Set[E]) Set[E] {
	for e := range src {
		acc[e] = true
	}
	return acc
}

// Intersect joins two set facts as a must-property (every path).
func Intersect[E comparable](acc, src Set[E]) Set[E] {
	for e := range acc {
		if !src[e] {
			delete(acc, e)
		}
	}
	return acc
}
