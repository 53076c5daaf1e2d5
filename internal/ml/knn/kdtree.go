package knn

import (
	"math"
	"math/bits"
	"sort"
)

// This file implements the spatial index behind Euclidean (p=2) neighbour
// queries: a KD-tree with median splits on the axis of widest spread, plus
// a per-key forest for the one-hot-MAC feature layout. The index is an
// exact drop-in for the brute-force scan — both paths rank neighbours by
// the canonical (distance, training-index) order and compute distances
// with the same floating-point operation sequence, so predictions are
// byte-identical whichever backend answers the query.

// neighbour pairs a training index with its distance to the query. sq is
// the pre-sqrt squared distance, kept for KD-tree pruning.
type neighbour struct {
	idx  int
	dist float64
	sq   float64
}

// nearest accumulates the k best candidates in canonical (dist, idx)
// ascending order. It is a plain insertion list: k is small (the paper
// uses 3 and 16), so ordered insertion beats heap bookkeeping.
type nearest struct {
	k    int
	nbrs []neighbour
}

func newNearest(k int) *nearest {
	return &nearest{k: k, nbrs: make([]neighbour, 0, k)}
}

// reset clears the list for reuse across queries in a batch.
func (nb *nearest) reset() { nb.nbrs = nb.nbrs[:0] }

func (nb *nearest) full() bool { return len(nb.nbrs) == nb.k }

// worstSq returns the pruning bound: the squared distance of the current
// k-th candidate, or +Inf while the list is not yet full.
func (nb *nearest) worstSq() float64 {
	if !nb.full() {
		return math.Inf(1)
	}
	return nb.nbrs[len(nb.nbrs)-1].sq
}

// consider offers a candidate; it is inserted iff it precedes the current
// k-th candidate in (dist, idx) order. The list is short, so the slot is
// found by shifting later-ranked candidates up from the tail.
func (nb *nearest) consider(idx int, dist, sq float64) {
	n := len(nb.nbrs)
	if n == nb.k {
		last := nb.nbrs[n-1]
		if dist > last.dist || (dist == last.dist && idx > last.idx) {
			return
		}
		n--
	} else {
		nb.nbrs = append(nb.nbrs, neighbour{})
	}
	for ; n > 0; n-- {
		prev := nb.nbrs[n-1]
		if !(prev.dist > dist || (prev.dist == dist && prev.idx > idx)) {
			break
		}
		nb.nbrs[n] = prev
	}
	nb.nbrs[n] = neighbour{idx: idx, dist: dist, sq: sq}
}

// distFunc computes (dist, squaredDist) between the query and one stored
// point. Implementations must mirror the brute-force accumulation order so
// results stay byte-identical.
type distFunc func(p []float64) (dist, sq float64)

// euclid accumulates squared differences in feature order and returns
// (sqrt(sum), sum) — the exact operation sequence of the brute-force p=2
// scan.
func euclid(a, b []float64) (float64, float64) {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum), sum
}

// kdNode is one tree node. Leaves hold a contiguous range of the order
// slice; internal nodes split on axis at value split.
type kdNode struct {
	axis        int
	split       float64
	left, right int32 // node indices; -1 on leaves
	lo, hi      int32 // leaf point range into kdTree.order
}

// kdTree is a static KD-tree over a point set. pts holds the coordinate
// views used for splitting (3-dim xyz for per-key subtrees, full feature
// vectors otherwise); idx maps tree-local positions to training indices.
type kdTree struct {
	pts   [][]float64
	idx   []int
	order []int // permutation of tree-local positions, grouped by leaf
	nodes []kdNode
}

// kdLeafSize is the maximum leaf population; below this a linear scan of
// the leaf beats further splitting.
const kdLeafSize = 16

// newKDTree builds a tree over the given points. idx[i] is the training
// index of pts[i]; both slices are retained, not copied.
func newKDTree(pts [][]float64, idx []int) *kdTree {
	t := &kdTree{pts: pts, idx: idx, order: make([]int, len(pts))}
	for i := range t.order {
		t.order[i] = i
	}
	if len(pts) > 0 {
		t.build(0, len(pts))
	}
	return t
}

// build recursively splits order[lo:hi] and returns the node index.
func (t *kdTree) build(lo, hi int) int32 {
	ni := int32(len(t.nodes))
	t.nodes = append(t.nodes, kdNode{left: -1, right: -1, lo: int32(lo), hi: int32(hi)})
	if hi-lo <= kdLeafSize {
		return ni
	}
	axis, spread := t.widestAxis(lo, hi)
	if spread == 0 {
		// All points coincide on every axis: keep as a leaf.
		return ni
	}
	mid := lo + (hi-lo)/2
	t.selectNth(lo, hi, mid, axis, 2*bits.Len(uint(hi-lo)))
	split := t.pts[t.order[mid]][axis]
	t.nodes[ni].axis = axis
	t.nodes[ni].split = split
	left := t.build(lo, mid)
	right := t.build(mid, hi)
	t.nodes[ni].left = left
	t.nodes[ni].right = right
	return ni
}

// less is the build's total order on tree-local positions: coordinate
// on axis, then position. Positions are distinct, so no two points tie.
func (t *kdTree) less(axis, a, b int) bool {
	pa, pb := t.pts[a][axis], t.pts[b][axis]
	if pa != pb {
		return pa < pb
	}
	return a < b
}

// selectNth permutes order[lo:hi] so that order[nth] holds the point a
// full sort by less would put there, every point before it precedes it
// and every point after it follows it: quickselect with a median-of-three
// pivot. The sides stay unordered. Each subtree still gets the point set
// a full sort would give it, so the tree's nodes are the same; only the
// order of points within a leaf can differ, and searches do not depend
// on it (a leaf is scanned whole, and nearest ranks candidates by
// (dist, idx) whatever order they arrive in). After rounds partition
// passes the segment left is sorted outright, which bounds adversarial
// inputs at O(n log n).
func (t *kdTree) selectNth(lo, hi, nth, axis, rounds int) {
	o := t.order
	for ; hi-lo > 1; rounds-- {
		if rounds <= 0 {
			seg := o[lo:hi]
			sort.Slice(seg, func(a, b int) bool { return t.less(axis, seg[a], seg[b]) })
			return
		}
		// Median of first, middle and last goes to hi-1 as the pivot.
		m, last := lo+(hi-lo)/2, hi-1
		if t.less(axis, o[m], o[lo]) {
			o[m], o[lo] = o[lo], o[m]
		}
		if t.less(axis, o[last], o[lo]) {
			o[last], o[lo] = o[lo], o[last]
		}
		if t.less(axis, o[m], o[last]) {
			o[m], o[last] = o[last], o[m]
		}
		pivot, store := o[last], lo
		for i := lo; i < last; i++ {
			if t.less(axis, o[i], pivot) {
				o[i], o[store] = o[store], o[i]
				store++
			}
		}
		o[store], o[last] = o[last], o[store]
		switch {
		case nth == store:
			return
		case nth < store:
			hi = store
		default:
			lo = store + 1
		}
	}
}

// widestAxis returns the axis with the largest coordinate range over
// order[lo:hi] and that range.
func (t *kdTree) widestAxis(lo, hi int) (int, float64) {
	dims := len(t.pts[t.order[lo]])
	bestAxis, bestSpread := 0, 0.0
	for a := 0; a < dims; a++ {
		min, max := math.Inf(1), math.Inf(-1)
		for _, oi := range t.order[lo:hi] {
			v := t.pts[oi][a]
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if s := max - min; s > bestSpread {
			bestAxis, bestSpread = a, s
		}
	}
	return bestAxis, bestSpread
}

// search offers every point within pruning reach to nb. q is in the
// tree's coordinate space; extraSq is a constant added to every squared
// distance in this tree (the cross-key one-hot offset), used only for
// pruning — dist itself comes from distFn.
func (t *kdTree) search(q []float64, extraSq float64, nb *nearest, distFn distFunc) {
	if len(t.pts) == 0 {
		return
	}
	t.searchNode(0, q, extraSq, nb, distFn)
}

func (t *kdTree) searchNode(ni int32, q []float64, extraSq float64, nb *nearest, distFn distFunc) {
	n := &t.nodes[ni]
	if n.left < 0 {
		for _, oi := range t.order[n.lo:n.hi] {
			d, sq := distFn(t.pts[oi])
			nb.consider(t.idx[oi], d, sq)
		}
		return
	}
	near, far := n.left, n.right
	if q[n.axis] > n.split {
		near, far = far, near
	}
	t.searchNode(near, q, extraSq, nb, distFn)
	ad := q[n.axis] - n.split
	if adSq := ad * ad; adSq+extraSq <= nb.worstSq() {
		t.searchNode(far, q, extraSq, nb, distFn)
	}
}

// kdIndex is the Euclidean neighbour index of a Regressor. For the
// one-hot-MAC feature layout (x, y, z, one-hot block) it keeps one 3-D
// subtree per hot key: same-key neighbours differ only in xyz, and
// cross-key neighbours add a constant 2·scale² offset, so whole per-key
// subtrees prune in one comparison. For any other layout it keeps a single
// full-dimension tree.
type kdIndex struct {
	dims  int
	scale float64         // one-hot magnitude; 0 ⇒ full-dimension tree
	keys  []int           // hot keys in ascending order
	byKey map[int]*kdTree // per-key xyz subtrees
	// groups holds each key's training indices in insertion order — the
	// member lists incremental merges rebuild subtrees from.
	groups map[int][]int
	tree   *kdTree // full-dimension fallback layout
}

// buildIndex constructs the index for the stored training set, or nil when
// no index applies (the caller then scans).
func buildIndex(x [][]float64) *kdIndex {
	if len(x) == 0 {
		return nil
	}
	dims := len(x[0])
	idx := &kdIndex{dims: dims}
	if scale, ok := oneHotScale(x); ok {
		idx.scale = scale
		idx.groups = map[int][]int{}
		for i, row := range x {
			h := hotIndex(row, oneHotOffset)
			idx.groups[h] = append(idx.groups[h], i)
		}
		idx.byKey = make(map[int]*kdTree, len(idx.groups))
		for h := range idx.groups {
			idx.rebuildKey(x, h)
			idx.keys = append(idx.keys, h)
		}
		sort.Ints(idx.keys)
		return idx
	}
	pts := make([][]float64, len(x))
	ids := make([]int, len(x))
	for i, row := range x {
		pts[i] = row
		ids[i] = i
	}
	idx.tree = newKDTree(pts, ids)
	return idx
}

// rebuildKey rebuilds one key's subtree from its member list. Members
// are in insertion order, so an incrementally rebuilt subtree is
// identical to the one a from-scratch buildIndex over the cumulative
// rows produces.
func (ix *kdIndex) rebuildKey(x [][]float64, h int) {
	members := ix.groups[h]
	pts := make([][]float64, len(members))
	for j, m := range members {
		pts[j] = x[m][:oneHotOffset]
	}
	ix.byKey[h] = newKDTree(pts, members)
}

// addRows merges rows x[from:] into the index incrementally, rebuilding
// only the per-key subtrees that gained members (the cheap per-MAC merge
// the insert log is buffered for). It reports false — mutating nothing —
// when any new row does not fit the index's one-hot layout; the caller
// then rebuilds the index from scratch.
func (ix *kdIndex) addRows(x [][]float64, from int) bool {
	if ix.tree != nil {
		// Full-dimension fallback layout: no per-key structure to merge
		// into.
		return false
	}
	hs := make([]int, len(x)-from)
	for i := from; i < len(x); i++ {
		row := x[i]
		if len(row) != ix.dims {
			return false
		}
		h := hotIndex(row, oneHotOffset)
		if h < 0 || row[oneHotOffset+h] != ix.scale {
			return false
		}
		hs[i-from] = h
	}
	dirty := map[int]bool{}
	for i, h := range hs {
		ix.groups[h] = append(ix.groups[h], from+i)
		dirty[h] = true
	}
	for h := range dirty {
		if _, known := ix.byKey[h]; !known {
			pos := sort.SearchInts(ix.keys, h)
			ix.keys = append(ix.keys, 0)
			copy(ix.keys[pos+1:], ix.keys[pos:])
			ix.keys[pos] = h
		}
		ix.rebuildKey(x, h)
	}
	return true
}

// oneHotOffset is where the one-hot block starts in the paper's feature
// layout (x, y, z, one-hot MAC).
const oneHotOffset = 3

// oneHotScale reports whether every row is xyz followed by exactly one hot
// entry of a common non-zero magnitude, returning that magnitude.
func oneHotScale(x [][]float64) (float64, bool) {
	if len(x[0]) <= oneHotOffset {
		return 0, false
	}
	scale := 0.0
	for _, row := range x {
		h := hotIndex(row, oneHotOffset)
		if h < 0 {
			return 0, false
		}
		v := row[oneHotOffset+h]
		if scale == 0 {
			scale = v
		}
		if v != scale {
			return 0, false
		}
	}
	return scale, scale != 0
}

// search fills nb with the k nearest training points to q in canonical
// (dist, idx) order. It reports false when the query does not fit the
// index's layout (the caller must fall back to the scan).
func (ix *kdIndex) search(q []float64, nb *nearest) bool {
	if ix.tree != nil {
		ix.tree.search(q, 0, nb, func(p []float64) (float64, float64) { return euclid(q, p) })
		return true
	}
	h := hotIndex(q, oneHotOffset)
	if h < 0 || q[oneHotOffset+h] != ix.scale {
		return false
	}
	qxyz := q[:oneHotOffset]
	s2 := ix.scale * ix.scale
	sameKey := func(p []float64) (float64, float64) {
		return euclid(qxyz, p)
	}
	crossKey := func(p []float64) (float64, float64) {
		var sum float64
		for i := range qxyz {
			d := qxyz[i] - p[i]
			sum += d * d
		}
		sum += s2
		sum += s2
		return math.Sqrt(sum), sum
	}
	// Same-key subtree first: it owns the closest candidates and tightens
	// the bound before any cross-key subtree is visited.
	if own, ok := ix.byKey[h]; ok {
		own.search(qxyz, 0, nb, sameKey)
	}
	crossSq := s2 + s2
	for _, key := range ix.keys {
		if key == h {
			continue
		}
		if crossSq > nb.worstSq() {
			break // every remaining subtree is at least this far away
		}
		ix.byKey[key].search(qxyz, crossSq, nb, crossKey)
	}
	return true
}
