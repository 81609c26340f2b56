package raster

// Labels is the result of connected-component labeling: component IDs
// start at 1 (0 = background), stored per cell.
type Labels struct {
	Geometry
	Data []int32
	// N is the number of components.
	N int
	// Sizes holds the cell count per component, indexed by ID (Sizes[0]
	// is unused).
	Sizes []int
}

// LabelComponents labels the 4-connected components of the set cells of a
// mask with a two-pass union-find algorithm. Fire complexes, contiguous
// hazard patches and coverage islands all reduce to this.
func LabelComponents(mask *BitGrid) *Labels {
	g := mask.Geometry
	out := &Labels{Geometry: g, Data: make([]int32, g.Cells())}

	parent := []int32{0} // union-find; index 0 reserved for background
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) int32 {
		ra, rb := find(a), find(b)
		if ra == rb {
			return ra
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		return ra
	}

	// First pass: provisional labels.
	for cy := 0; cy < g.NY; cy++ {
		for cx := 0; cx < g.NX; cx++ {
			if !mask.Get(cx, cy) {
				continue
			}
			var left, down int32
			if cx > 0 {
				left = out.Data[cy*g.NX+cx-1]
			}
			if cy > 0 {
				down = out.Data[(cy-1)*g.NX+cx]
			}
			switch {
			case left == 0 && down == 0:
				id := int32(len(parent))
				parent = append(parent, id)
				out.Data[cy*g.NX+cx] = id
			case left != 0 && down == 0:
				out.Data[cy*g.NX+cx] = left
			case left == 0 && down != 0:
				out.Data[cy*g.NX+cx] = down
			default:
				out.Data[cy*g.NX+cx] = union(left, down)
			}
		}
	}

	// Second pass: compress to dense sequential IDs.
	remap := make(map[int32]int32)
	for i, v := range out.Data {
		if v == 0 {
			continue
		}
		root := find(v)
		id, ok := remap[root]
		if !ok {
			id = int32(len(remap) + 1)
			remap[root] = id
		}
		out.Data[i] = id
	}
	out.N = len(remap)
	out.Sizes = make([]int, out.N+1)
	for _, v := range out.Data {
		if v > 0 {
			out.Sizes[v]++
		}
	}
	return out
}

// Largest returns the ID and size of the largest component (0, 0 when
// there are none).
func (l *Labels) Largest() (int, int) {
	best, bestN := 0, 0
	for id := 1; id <= l.N; id++ {
		if l.Sizes[id] > bestN {
			best, bestN = id, l.Sizes[id]
		}
	}
	return best, bestN
}
