// Package rtree provides a static, bulk-loaded R-tree over bounding boxes.
// The overlay engine uses it to index wildfire perimeters and county zones
// so that the point-in-polygon joins run against a handful of candidate
// geometries instead of the whole catalog.
//
// The tree is built once with the Sort-Tile-Recursive (STR) packing
// algorithm (Leutenegger et al. 1997), which yields near-optimal space
// utilization for static data sets — exactly the shape of this workload,
// where a year's fire catalog is generated and then queried millions of
// times.
package rtree

import (
	"math"
	"sort"

	"fivealarms/internal/geom"
)

// Item is an entry stored in the tree: a bounding box plus an opaque
// caller-assigned identifier (typically an index into a parallel slice).
type Item struct {
	Box geom.BBox
	ID  int
}

// Tree is an immutable STR-packed R-tree. The zero value is an empty tree.
// Safe for concurrent readers.
type Tree struct {
	nodes  []node
	leaves []Item
	root   int
	height int
}

type node struct {
	box      geom.BBox
	first    int // index of first child (node index, or leaf item index at height 1)
	count    int
	isParent bool // children are nodes rather than leaf items
}

// DefaultFanout is the number of children per node used by New.
const DefaultFanout = 16

// New bulk-loads a tree from items with the default fanout. The input slice
// is not retained; it may be reused by the caller.
func New(items []Item) *Tree { return NewWithFanout(items, DefaultFanout) }

// NewWithFanout bulk-loads a tree with the given maximum node fanout
// (minimum 2).
func NewWithFanout(items []Item, fanout int) *Tree {
	if fanout < 2 {
		fanout = 2
	}
	t := &Tree{}
	if len(items) == 0 {
		t.root = -1
		return t
	}
	t.leaves = make([]Item, len(items))
	copy(t.leaves, items)

	// STR: sort by center X, slice into vertical runs, sort each run by
	// center Y, then pack consecutive groups of `fanout` into leaf nodes.
	n := len(t.leaves)
	nLeafNodes := (n + fanout - 1) / fanout
	nSlices := intSqrtCeil(nLeafNodes)
	runLen := nSlices * fanout

	sort.Slice(t.leaves, func(i, j int) bool {
		return t.leaves[i].Box.Center().X < t.leaves[j].Box.Center().X
	})
	for start := 0; start < n; start += runLen {
		end := min(start+runLen, n)
		run := t.leaves[start:end]
		sort.Slice(run, func(i, j int) bool {
			return run[i].Box.Center().Y < run[j].Box.Center().Y
		})
	}

	// Level 1: leaf nodes referencing item ranges.
	level := make([]int, 0, nLeafNodes)
	for start := 0; start < n; start += fanout {
		end := min(start+fanout, n)
		box := geom.EmptyBBox()
		for _, it := range t.leaves[start:end] {
			box = box.ExtendBBox(it.Box)
		}
		t.nodes = append(t.nodes, node{box: box, first: start, count: end - start})
		level = append(level, len(t.nodes)-1)
	}
	t.height = 1

	// Upper levels: pack nodes of the previous level.
	for len(level) > 1 {
		next := make([]int, 0, (len(level)+fanout-1)/fanout)
		for start := 0; start < len(level); start += fanout {
			end := min(start+fanout, len(level))
			box := geom.EmptyBBox()
			for _, ni := range level[start:end] {
				box = box.ExtendBBox(t.nodes[ni].box)
			}
			// Children of packed nodes are contiguous in t.nodes because
			// each level is appended in order.
			t.nodes = append(t.nodes, node{
				box: box, first: level[start], count: end - start, isParent: true,
			})
			next = append(next, len(t.nodes)-1)
		}
		level = next
		t.height++
	}
	t.root = level[0]
	return t
}

// Len returns the number of items stored.
func (t *Tree) Len() int { return len(t.leaves) }

// Bounds returns the bounding box of all items, empty for an empty tree.
func (t *Tree) Bounds() geom.BBox {
	if t.root < 0 || len(t.nodes) == 0 {
		return geom.EmptyBBox()
	}
	return t.nodes[t.root].box
}

// Search appends to dst the IDs of all items whose boxes intersect query
// and returns the extended slice. Pass nil to allocate.
func (t *Tree) Search(query geom.BBox, dst []int) []int {
	if t.root < 0 || query.IsEmpty() {
		return dst
	}
	return t.search(t.root, query, dst)
}

func (t *Tree) search(ni int, query geom.BBox, dst []int) []int {
	nd := &t.nodes[ni]
	if !nd.box.Intersects(query) {
		return dst
	}
	if !nd.isParent {
		for _, it := range t.leaves[nd.first : nd.first+nd.count] {
			if it.Box.Intersects(query) {
				dst = append(dst, it.ID)
			}
		}
		return dst
	}
	for c := nd.first; c < nd.first+nd.count; c++ {
		dst = t.search(c, query, dst)
	}
	return dst
}

// SearchPoint appends the IDs of all items whose boxes contain p.
func (t *Tree) SearchPoint(p geom.Point, dst []int) []int {
	return t.Search(geom.BBox{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}, dst)
}

// Visit calls fn for every item whose box intersects query; returning false
// stops the traversal early.
func (t *Tree) Visit(query geom.BBox, fn func(it Item) bool) {
	if t.root < 0 || query.IsEmpty() {
		return
	}
	t.visit(t.root, query, fn)
}

func (t *Tree) visit(ni int, query geom.BBox, fn func(Item) bool) bool {
	nd := &t.nodes[ni]
	if !nd.box.Intersects(query) {
		return true
	}
	if !nd.isParent {
		for _, it := range t.leaves[nd.first : nd.first+nd.count] {
			if it.Box.Intersects(query) && !fn(it) {
				return false
			}
		}
		return true
	}
	for c := nd.first; c < nd.first+nd.count; c++ {
		if !t.visit(c, query, fn) {
			return false
		}
	}
	return true
}

// Nearest returns the ID of the item whose box is nearest to p (distance 0
// when p is inside a box) and the distance, or (-1, +inf) for an empty tree.
func (t *Tree) Nearest(p geom.Point) (int, float64) {
	if t.root < 0 {
		return -1, inf()
	}
	bestID := -1
	bestD := inf()
	t.nearest(t.root, p, &bestID, &bestD)
	return bestID, bestD
}

func (t *Tree) nearest(ni int, p geom.Point, bestID *int, bestD *float64) {
	nd := &t.nodes[ni]
	if nd.box.DistanceTo(p) >= *bestD {
		return
	}
	if !nd.isParent {
		for _, it := range t.leaves[nd.first : nd.first+nd.count] {
			if d := it.Box.DistanceTo(p); d < *bestD {
				*bestD = d
				*bestID = it.ID
			}
		}
		return
	}
	// Visit children closest-first for better pruning. Fall back to plain
	// order for unusually wide nodes rather than truncating the scan.
	if nd.count > 64 {
		for c := nd.first; c < nd.first+nd.count; c++ {
			t.nearest(c, p, bestID, bestD)
		}
		return
	}
	type cd struct {
		idx int
		d   float64
	}
	var order [64]cd
	cnt := 0
	for c := nd.first; c < nd.first+nd.count; c++ {
		order[cnt] = cd{c, t.nodes[c].box.DistanceTo(p)}
		cnt++
	}
	children := order[:cnt]
	sort.Slice(children, func(i, j int) bool { return children[i].d < children[j].d })
	for _, c := range children {
		t.nearest(c.idx, p, bestID, bestD)
	}
}

func inf() float64 { return math.Inf(1) }

func intSqrtCeil(n int) int {
	if n <= 1 {
		return 1
	}
	s := 1
	for s*s < n {
		s++
	}
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
