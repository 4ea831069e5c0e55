// Package index provides fast spatial indexes over interval.Extent: a
// dynamic interval index with O(log n) insert/delete and output-sensitive
// stabbing and range-overlap queries (Index), a streamed k-way sweep-line
// that computes the pairwise overlaps or ownership of many extent lists, or
// the owners and covering views of a write log's bytes, in one pass and
// O(P) state (SweepOverlaps, EachWinner/ClipAll, Sweep); and the Slab that
// recycles the index's nodes and its caller's per-request objects.
//
// Every conflict-answering layer of the repository queries byte ranges —
// the overlap matrix of the paper's Figure 5, byte-range lock conflicts,
// rank-order view clipping, two-phase domain routing, and the sparse file
// store — and all of them build on this package instead of linear scans.
package index

import (
	"slices"

	"atomio/internal/interval"
)

// Handle identifies one stored extent within an Index. Handles are assigned
// in insertion order and are never reused, so they double as a deterministic
// tie-break for extents sharing an offset.
type Handle int64

// node is one treap node. The treap is keyed by (Off, Handle) — heap-ordered
// by prio — and augmented with the maximum End over its subtree, which is
// what prunes overlap queries to O(log n + matches).
type node[T any] struct {
	ext         interval.Extent
	h           Handle
	val         T
	prio        uint64
	maxEnd      int64
	left, right *node[T]
}

// Index is a dynamic interval index over interval.Extent implemented as an
// augmented treap. The zero value is an empty index ready for use. An Index
// is not safe for concurrent use: its caller, the lock table, runs on the
// engine's one thread, one actor at a time, so it takes no locks.
//
// Treap priorities come from a deterministic xorshift stream, so the tree
// shape — and therefore every iteration order — is a pure function of the
// operation sequence. That keeps simulation runs bit-reproducible. Nodes
// come from a Slab, and deleted ones go back to it.
type Index[T any] struct {
	root  *node[T]
	nodes Slab[node[T]]
	next  Handle
	rng   uint64
	size  int
}

// Len returns the number of stored extents.
func (ix *Index[T]) Len() int { return ix.size }

// Insert stores (e, v) and returns its handle. Empty extents may be stored;
// they are never reported by Overlapping or Stab (nothing overlaps them)
// but can still be removed via their handle.
func (ix *Index[T]) Insert(e interval.Extent, v T) Handle {
	ix.next++
	n := ix.nodes.Get()
	n.ext, n.h, n.val, n.prio = e, ix.next, v, ix.rand()
	ix.root = insert(ix.root, n)
	ix.size++
	return n.h
}

// Delete removes the extent stored under (e, h) and returns its value.
// The extent must match the one passed to Insert.
func (ix *Index[T]) Delete(e interval.Extent, h Handle) (T, bool) {
	var root, removed *node[T]
	root, removed = remove(ix.root, e.Off, h)
	if removed == nil {
		var zero T
		return zero, false
	}
	ix.root = root
	ix.size--
	v := removed.val
	ix.nodes.Put(removed)
	return v, true
}

// Overlapping visits every stored extent sharing at least one byte with e,
// in (Off, Handle) order — offset order, insertion order among equals. The
// visitor returns false to stop early; Overlapping reports whether the walk
// ran to completion.
func (ix *Index[T]) Overlapping(e interval.Extent, visit func(e interval.Extent, h Handle, v T) bool) bool {
	if e.Empty() {
		return true
	}
	return overlapping(ix.root, e, visit)
}

// All visits every stored extent in (Off, Handle) order.
func (ix *Index[T]) All(visit func(e interval.Extent, h Handle, v T) bool) bool {
	return all(ix.root, visit)
}

// rand steps the index's deterministic xorshift64 priority stream.
func (ix *Index[T]) rand() uint64 {
	x := ix.rng
	if x == 0 {
		x = 0x9E3779B97F4A7C15 // golden-ratio seed; any nonzero constant works
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ix.rng = x
	return x
}

// keyLess orders nodes by (Off, Handle).
func keyLess[T any](a *node[T], off int64, h Handle) bool {
	return a.ext.Off < off || (a.ext.Off == off && a.h < h)
}

// update recomputes the subtree-max-End augmentation of n.
func (n *node[T]) update() {
	m := n.ext.End()
	if n.left != nil && n.left.maxEnd > m {
		m = n.left.maxEnd
	}
	if n.right != nil && n.right.maxEnd > m {
		m = n.right.maxEnd
	}
	n.maxEnd = m
}

func rotateRight[T any](n *node[T]) *node[T] {
	l := n.left
	n.left = l.right
	l.right = n
	n.update()
	l.update()
	return l
}

func rotateLeft[T any](n *node[T]) *node[T] {
	r := n.right
	n.right = r.left
	r.left = n
	n.update()
	r.update()
	return r
}

func insert[T any](root, n *node[T]) *node[T] {
	if root == nil {
		n.update()
		return n
	}
	if keyLess(n, root.ext.Off, root.h) {
		root.left = insert(root.left, n)
		if root.left.prio > root.prio {
			root = rotateRight(root)
		}
	} else {
		root.right = insert(root.right, n)
		if root.right.prio > root.prio {
			root = rotateLeft(root)
		}
	}
	root.update()
	return root
}

// merge joins two treaps where every key of a precedes every key of b.
func merge[T any](a, b *node[T]) *node[T] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.prio > b.prio {
		a.right = merge(a.right, b)
		a.update()
		return a
	}
	b.left = merge(a, b.left)
	b.update()
	return b
}

func remove[T any](root *node[T], off int64, h Handle) (*node[T], *node[T]) {
	if root == nil {
		return nil, nil
	}
	var removed *node[T]
	switch {
	case keyLess(root, off, h): // root < key: descend right
		root.right, removed = remove(root.right, off, h)
	case root.ext.Off == off && root.h == h:
		return merge(root.left, root.right), root
	default: // key < root: descend left
		root.left, removed = remove(root.left, off, h)
	}
	if removed != nil {
		root.update()
	}
	return root, removed
}

func overlapping[T any](n *node[T], q interval.Extent, visit func(interval.Extent, Handle, T) bool) bool {
	// Subtrees whose extents all end at or before q.Off cannot overlap.
	if n == nil || n.maxEnd <= q.Off {
		return true
	}
	if !overlapping(n.left, q, visit) {
		return false
	}
	if n.ext.Overlaps(q) {
		if !visit(n.ext, n.h, n.val) {
			return false
		}
	}
	// Right-subtree keys start at or after n.ext.Off; once that is past the
	// query's end no right descendant can overlap.
	if n.ext.Off < q.End() {
		return overlapping(n.right, q, visit)
	}
	return true
}

func all[T any](n *node[T], visit func(interval.Extent, Handle, T) bool) bool {
	if n == nil {
		return true
	}
	return all(n.left, visit) &&
		visit(n.ext, n.h, n.val) &&
		all(n.right, visit)
}

// Slab hands out zeroed *T from arrays it allocates a few at a time, and
// takes them back for reuse: n objects that come and go cost O(log n)
// allocations, not n. The zero value is an empty slab ready for use.
type Slab[T any] struct {
	free []*T // taken back, handed out first
	rest []T  // the newest array's unused tail
	made int  // entries allocated so far: the next array's size, to 256
}

// Get returns a zeroed T.
func (s *Slab[T]) Get() *T {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	if len(s.rest) == 0 {
		s.rest = make([]T, min(max(s.made, 4), 256))
		s.made += len(s.rest)
	}
	p := &s.rest[0]
	s.rest = s.rest[1:]
	return p
}

// Put zeroes p, which its caller may not use after, and takes it back.
// It grows the free list out of line, through slices.Grow, not append: the
// lock table's frames that Put is inlined into stay their size.
func (s *Slab[T]) Put(p *T) {
	*p = *new(T)
	if len(s.free) == cap(s.free) {
		s.free = slices.Grow(s.free, 1)
	}
	s.free = s.free[:len(s.free)+1]
	s.free[len(s.free)-1] = p
}
