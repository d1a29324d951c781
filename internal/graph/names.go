package graph

import (
	"fmt"
	"math/rand"
)

// ByName builds the graph the command-line tools (cmd/rdvsim,
// cmd/rdvexplore) select with their -graph and -n flags: one registry,
// like explore.ByName and core.AlgorithmByName, so the tools cannot
// drift on which families and sizes they accept. n is range-checked
// per family before the generator runs (the generators panic on
// out-of-range sizes), and errors name the flags. Grid and torus round
// n up to the next square (at least 3x3 for a torus); tree draws a
// random tree from seed.
func ByName(kind string, n int, seed int64) (*Graph, error) {
	minN := 2
	var build func(n int) *Graph
	switch kind {
	case "ring":
		minN, build = 3, OrientedRing
	case "path":
		build = Path
	case "star":
		build = Star
	case "tree":
		build = func(n int) *Graph { return RandomTree(n, rand.New(rand.NewSource(seed))) }
	case "grid":
		build = func(n int) *Graph { side := squareSide(n, 1); return Grid(side, side) }
	case "torus":
		build = func(n int) *Graph { side := squareSide(n, 3); return Torus(side, side) }
	case "complete":
		build = Complete
	case "hypercube":
		if n < 1 || n > 20 {
			return nil, fmt.Errorf("-graph hypercube: need 1 <= -n <= 20 (got %d)", n)
		}
		return Hypercube(n), nil
	default:
		return nil, fmt.Errorf("unknown graph %q", kind)
	}
	if n < minN {
		return nil, fmt.Errorf("-graph %s: need -n >= %d (got %d)", kind, minN, n)
	}
	return build(n), nil
}

// squareSide returns the smallest side of at least minSide whose square
// holds n nodes.
func squareSide(n, minSide int) int {
	side := minSide
	for side*side < n {
		side++
	}
	return side
}
