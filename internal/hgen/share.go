package hgen

import (
	"sort"

	"repro/internal/isdl"
)

// This file implements the resource-sharing algorithm of Figure 5:
//
//	Label each operation in RTL with an integer
//	A[i][j] = 1 if the nodes can be shared, 0 otherwise
//	Generate maximal cliques for A
//	Generate hardware for maximal cliques
//
// with the shareability criteria of §4.1.2 (rules 1–4) and the refinement
// that constraints can prove operations in different fields mutually
// exclusive, enabling more sharing (the bus example of §4.1.1).

// SharingMode selects how aggressively nodes are shared (ablation A).
type SharingMode int

const (
	// ShareOff generates one circuit per node (the "naive scheme" of
	// §4.1.1).
	ShareOff SharingMode = iota
	// ShareRules applies rules 1–4 only.
	ShareRules
	// ShareRulesAndConstraints additionally consults the constraint
	// section to prove cross-field mutual exclusion (the paper's full
	// algorithm).
	ShareRulesAndConstraints
)

func (m SharingMode) String() string {
	switch m {
	case ShareOff:
		return "off"
	case ShareRules:
		return "rules"
	default:
		return "rules+constraints"
	}
}

// shareMatrix builds A. A[i][j] is true iff nodes i and j may share a
// circuit.
func shareMatrix(d *isdl.Description, nodes []*Node, mode SharingMode, coex *coexistence) [][]bool {
	n := len(nodes)
	a := make([][]bool, n)
	for i := range a {
		a[i] = make([]bool, n)
	}
	if mode == ShareOff {
		return a
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ok := shareable(nodes[i], nodes[j], mode, coex)
			a[i][j], a[j][i] = ok, ok
		}
	}
	return a
}

func shareable(x, y *Node, mode SharingMode, coex *coexistence) bool {
	// Rule 2: different tasks cannot share (add/sub subsume each other).
	if unitClass(x.Kind) != unitClass(y.Kind) {
		return false
	}
	if x.Op == y.Op {
		// Same operation: live in the same cycle (rule 1 covers the same
		// statement; concurrently-evaluated statements of one operation
		// are equally parallel) — unless they belong to different options
		// of the same non-terminal parameter, which are mutually
		// exclusive by construction.
		xp, yp := x.ParamPath, y.ParamPath
		if xp == "" || yp == "" {
			return false
		}
		return paramOf(xp) == paramOf(yp) && xp != yp
	}
	if x.Op.Field == y.Op.Field {
		// Rule 3: operations of one field are mutually exclusive.
		return true
	}
	// Rule 4: different fields operate in parallel — unless the
	// constraints prove the two operations never co-occur.
	if mode == ShareRulesAndConstraints {
		return !coex.canCoexist(x.Op, y.Op)
	}
	return false
}

// paramOf strips the option index from "param/idx[...]" leaving the
// parameter root.
func paramOf(path string) string {
	for i := 0; i < len(path); i++ {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return path
}

// coexistenceBudget caps the search nodes spent on one operation pair.
const coexistenceBudget = 200000

// coexistence answers "can these two operations appear in the same valid
// instruction?" by searching for a completing selection of one operation
// per remaining field that satisfies every constraint. Each node evaluates
// every constraint three-valued over the partial selection: one definite
// False cuts the branch, and all True answers yes without choosing the
// remaining fields (the parser rejects empty fields, so some completion
// exists). Within the budget the answer is exact.
type coexistence struct {
	d     *isdl.Description
	cache map[[2]*isdl.Operation]bool
	// budget is what is left of coexistenceBudget for the current pair;
	// exhausting it answers "yes" (conservative: no sharing), and
	// exhausted counts the pairs answered that way.
	budget    int
	exhausted int
	sel       []*isdl.Operation
}

func newCoexistence(d *isdl.Description) *coexistence {
	return &coexistence{d: d, cache: map[[2]*isdl.Operation]bool{}, sel: make([]*isdl.Operation, len(d.Fields))}
}

func (c *coexistence) canCoexist(a, b *isdl.Operation) bool {
	if a.Field == b.Field {
		return a == b
	}
	key := [2]*isdl.Operation{a, b}
	if a.Field.Index > b.Field.Index {
		key = [2]*isdl.Operation{b, a}
	}
	if v, ok := c.cache[key]; ok {
		return v
	}
	c.budget = coexistenceBudget
	clear(c.sel)
	c.sel[a.Field.Index] = a
	c.sel[b.Field.Index] = b
	v := c.search(0)
	if c.budget < 0 {
		c.exhausted++
	}
	c.cache[key] = v
	return v
}

// search reports whether the selection, with the fields before field
// already decided, extends to a valid instruction.
func (c *coexistence) search(field int) bool {
	if c.budget <= 0 {
		c.budget = -1 // tells canCoexist the pair was not decided
		return true   // give up: assume they can co-occur
	}
	c.budget--
	sure := true
	for _, k := range c.d.Constraints {
		switch k.Eval(c.sel) {
		case isdl.False:
			return false
		case isdl.Unknown:
			sure = false
		}
	}
	if sure {
		return true
	}
	// Some constraint is undecided, so some field is still unchosen.
	for c.sel[field] != nil {
		field++
	}
	for _, op := range c.d.Fields[field].Ops {
		c.sel[field] = op
		if c.search(field + 1) {
			c.sel[field] = nil
			return true
		}
	}
	c.sel[field] = nil
	return false
}

// maximalCliques enumerates maximal cliques of A with the Bron–Kerbosch
// algorithm (pivoting on the vertex with most candidates). Enumeration is
// capped; the greedy cover below only needs a rich-enough pool.
func maximalCliques(a [][]bool, cap int) [][]int {
	n := len(a)
	var cliques [][]int
	var bk func(r, p, x []int)
	bk = func(r, p, x []int) {
		if len(cliques) >= cap {
			return
		}
		if len(p) == 0 && len(x) == 0 {
			clique := make([]int, len(r))
			copy(clique, r)
			cliques = append(cliques, clique)
			return
		}
		// Pivot: vertex of p∪x with most neighbours in p.
		pivot, best := -1, -1
		for _, u := range append(append([]int{}, p...), x...) {
			cnt := 0
			for _, v := range p {
				if a[u][v] {
					cnt++
				}
			}
			if cnt > best {
				best, pivot = cnt, u
			}
		}
		var candidates []int
		for _, v := range p {
			if pivot < 0 || !a[pivot][v] {
				candidates = append(candidates, v)
			}
		}
		for _, v := range candidates {
			var np, nx []int
			for _, w := range p {
				if a[v][w] {
					np = append(np, w)
				}
			}
			for _, w := range x {
				if a[v][w] {
					nx = append(nx, w)
				}
			}
			nr := make([]int, len(r), len(r)+1)
			copy(nr, r)
			bk(append(nr, v), np, nx)
			// Move v from p to x.
			for i, w := range p {
				if w == v {
					p = append(p[:i], p[i+1:]...)
					break
				}
			}
			x = append(x, v)
		}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	bk(nil, all, nil)
	return cliques
}

// cliqueCover partitions the nodes into shared groups: a greedy set cover
// over the maximal cliques (largest-first), falling back to greedy clique
// growth for nodes the capped enumeration missed. Every returned group is a
// clique of A.
func cliqueCover(a [][]bool, cliques [][]int) [][]int {
	n := len(a)
	assigned := make([]bool, n)
	var groups [][]int

	sort.Slice(cliques, func(i, j int) bool { return len(cliques[i]) > len(cliques[j]) })
	for _, cl := range cliques {
		var fresh []int
		for _, v := range cl {
			if !assigned[v] {
				fresh = append(fresh, v)
			}
		}
		if len(fresh) == 0 {
			continue
		}
		for _, v := range fresh {
			assigned[v] = true
		}
		groups = append(groups, fresh)
	}
	// Fallback for anything the cap left uncovered.
	for v := 0; v < n; v++ {
		if assigned[v] {
			continue
		}
		group := []int{v}
		assigned[v] = true
		for w := v + 1; w < n; w++ {
			if assigned[w] {
				continue
			}
			ok := true
			for _, g := range group {
				if !a[g][w] {
					ok = false
					break
				}
			}
			if ok {
				group = append(group, w)
				assigned[w] = true
			}
		}
		groups = append(groups, group)
	}
	return groups
}
