package graph

import (
	"math"
	"math/bits"

	"disco/internal/parallel"
)

// Inf is the distance reported for unreached nodes.
var Inf = math.Inf(1)

// qItem is a lazy-deletion queue entry: stale entries (node already
// settled, or pushed again at a shorter distance) are skipped on pop. key
// is math.Float64bits of the tentative distance. Distances are never
// negative, NaN or -0 (AddEdge rejects negative, NaN and infinite weights,
// and every source starts at +0), and for such floats the IEEE bit
// patterns order exactly like the values.
type qItem struct {
	key  uint64
	node NodeID
}

const (
	chunkLen = 64 // items per pool chunk
	noChunk  = -1
)

// radixQueue is a monotone radix heap over the composite key (dist bits,
// node ID). It pops keys in exactly the order a comparison heap ordered by
// (dist, node) would — the Dijkstra settle order every run of this package
// has always had — without comparing node IDs at all.
//
// last is the distance of the level being popped. Every key at exactly
// that distance sits in level, a bitset over node IDs, so the level pops
// in node order by bit scans. Every farther key sits in bucket i, where i
// is the highest bit at which its distance bits differ from last. When the
// level runs dry, the lowest non-empty bucket's minimum distance becomes
// last and only that bucket is redistributed: its keys at the new last
// join the level, and each other key drops to a strictly lower bucket, so
// a key moves at most 63 times, and in practice a few. A relaxation can
// never lower a distance below last (weights are non-negative), and one
// that keeps it at last — a zero-weight edge, or a weight too small to
// change the float sum — just joins the level, whatever its node ID.
// Keys are unique (relax pushes a node again only at a strictly shorter
// distance), so the level can be a set.
//
// A bucket is a linked list of fixed-size chunks of which only the head
// may be partly filled. All buckets draw chunks from one shared pool with
// a free list, and the pool allocates chunks one at a time, so a warm
// queue allocates nothing and its footprint tracks the peak number of
// queued items, as a binary heap's would, rather than the sum of every
// bucket's own peak.
type radixQueue struct {
	last  uint64
	level nodeSet
	mask  uint64 // bit i set iff bucket i is non-empty
	head  [64]int32
	fill  [64]int32  // items in each bucket's head chunk
	min   [64]uint64 // each non-empty bucket's smallest key
	pool  []*[chunkLen]qItem
	next  []int32 // the chunk after each chunk in its bucket or the free list
	used  int32   // pool[:used] handed out since the last reset
	free  int32   // free list of returned chunks
	size  int
}

func newRadixQueue(n int) radixQueue {
	return radixQueue{level: newNodeSet(n)}
}

func (q *radixQueue) reset() {
	for q.size > 0 && !q.level.empty() { // a truncated run left a level
		q.level.popMin()
	}
	for i := range q.head {
		q.head[i] = noChunk
	}
	q.mask, q.last, q.size = 0, 0, 0
	q.used, q.free = 0, noChunk
}

func (q *radixQueue) push(it qItem) {
	q.size++
	q.add(it)
}

func (q *radixQueue) add(it qItem) {
	x := it.key ^ q.last
	if x == 0 {
		q.level.add(uint32(it.node))
		return
	}
	b := 63 - bits.LeadingZeros64(x)
	c, f := q.head[b], q.fill[b]
	if c == noChunk {
		q.mask |= 1 << b
		q.min[b] = it.key
	} else if it.key < q.min[b] {
		q.min[b] = it.key
	}
	if c == noChunk || f == chunkLen {
		nc := q.alloc()
		q.next[nc] = c
		q.head[b] = nc
		c, f = nc, 0
	}
	q.pool[c][f] = it
	q.fill[b] = f + 1
}

func (q *radixQueue) alloc() int32 {
	if c := q.free; c != noChunk {
		q.free = q.next[c]
		return c
	}
	if int(q.used) == len(q.pool) {
		q.pool = append(q.pool, new([chunkLen]qItem))
		q.next = append(q.next, noChunk)
	}
	q.used++
	return q.used - 1
}

// pop removes and returns the smallest key. The queue must not be empty.
func (q *radixQueue) pop() qItem {
	q.size--
	if !q.level.empty() {
		return qItem{key: q.last, node: NodeID(q.level.popMin())}
	}
	b := bits.TrailingZeros64(q.mask)
	q.last = q.min[b]
	q.mask &^= 1 << b
	c, n := q.head[b], q.fill[b]
	q.head[b] = noChunk
	// The level's smallest node is returned directly, so a level of one —
	// every level, on maps whose distances are all distinct — never
	// touches the bitset.
	best := None
	for c != noChunk {
		for _, it := range q.pool[c][:n] {
			switch {
			case it.key != q.last:
				q.add(it)
			case best == None:
				best = it.node
			case it.node < best:
				q.level.add(uint32(best))
				best = it.node
			default:
				q.level.add(uint32(it.node))
			}
		}
		next := q.next[c]
		q.next[c] = q.free
		q.free = c
		c, n = next, chunkLen
	}
	return qItem{key: q.last, node: best}
}

// nodeSet is a hierarchical bitset over node IDs: lv[0] holds one bit per
// node and lv[i+1] one bit per non-zero word of lv[i], up to a single top
// word, so adding a node and removing the smallest take one word
// operation per level (three at n=8192).
type nodeSet struct {
	lv [][]uint64
}

func newNodeSet(n int) nodeSet {
	var s nodeSet
	for {
		w := max((n+63)/64, 1)
		s.lv = append(s.lv, make([]uint64, w))
		if w == 1 {
			return s
		}
		n = w
	}
}

func (s *nodeSet) empty() bool { return s.lv[len(s.lv)-1][0] == 0 }

func (s *nodeSet) add(v uint32) {
	for _, l := range s.lv {
		w := v >> 6
		old := l[w]
		l[w] = old | 1<<(v&63)
		if old != 0 {
			return
		}
		v = w
	}
}

// popMin removes and returns the smallest member. The set must not be
// empty.
func (s *nodeSet) popMin() uint32 {
	var v uint32
	for i := len(s.lv) - 1; i >= 0; i-- {
		v = v<<6 | uint32(bits.TrailingZeros64(s.lv[i][v]))
	}
	for u, i := v, 0; i < len(s.lv); i++ {
		w := u >> 6
		s.lv[i][w] &^= 1 << (u & 63)
		if s.lv[i][w] != 0 {
			break
		}
		u = w
	}
	return v
}

// SSSP is a reusable single-source shortest-path scratch space over a fixed
// graph. Reuse across calls avoids reallocating O(n) arrays for the many
// thousands of (truncated) Dijkstra runs the static simulator performs.
// An SSSP is not safe for concurrent use; create one per goroutine.
//
// Nodes settle in (distance, node ID) order; Order, Dist, Parent and
// Source are functions of that order and of the relax rule. The queue is
// a monotone radix heap (radixQueue): it buckets distances by their IEEE
// bits, which order like the values because distances are sums of finite
// non-negative weights (never negative, NaN or -0), and pops each distance
// level in node order from a bitset. Its pop sequence is therefore the same strict total order
// a comparison heap over (dist, node) produces, and every run is
// byte-identical to one over such a heap (a test keeps that heap as the
// oracle). On maps with few distinct distances — unit-weight maps have a
// handful, with thousands of nodes per level — it avoids the heap's
// logarithmic node-ID tie-breaks per pop; a warm scratch allocates
// nothing.
type SSSP struct {
	g       *Graph
	dist    []float64
	parent  []NodeID
	nearest []NodeID // multi-source: which source settled this node
	stamp   []uint32
	settled []uint32 // stamp marking fully settled nodes
	epoch   uint32
	queue   radixQueue
	order   []NodeID // settle order of the last run
}

// NewSSSP returns a shortest-path scratch bound to g. The graph must be
// Finalized and must not gain edges while the SSSP is in use.
func NewSSSP(g *Graph) *SSSP {
	if !g.Finalized() {
		g.Finalize()
	}
	n := g.N()
	return &SSSP{
		g:       g,
		dist:    make([]float64, n),
		parent:  make([]NodeID, n),
		nearest: make([]NodeID, n),
		stamp:   make([]uint32, n),
		settled: make([]uint32, n),
		queue:   newRadixQueue(n),
	}
}

// Graph returns the graph this scratch is bound to.
func (s *SSSP) Graph() *Graph { return s.g }

func (s *SSSP) begin() {
	s.epoch++
	if s.epoch == 0 { // wrapped: clear stamps and restart
		for i := range s.stamp {
			s.stamp[i] = 0
			s.settled[i] = 0
		}
		s.epoch = 1
	}
	s.queue.reset()
	s.order = s.order[:0]
}

func (s *SSSP) relax(v NodeID, d float64, via NodeID, src NodeID) {
	if s.stamp[v] == s.epoch {
		if s.settled[v] == s.epoch || d >= s.dist[v] {
			if d == s.dist[v] && s.settled[v] != s.epoch && src < s.nearest[v] {
				// Deterministic multi-source tie-break: lowest source wins.
				s.nearest[v] = src
				s.parent[v] = via
			}
			return
		}
	}
	s.stamp[v] = s.epoch
	s.dist[v] = d
	s.parent[v] = via
	s.nearest[v] = src
	s.queue.push(qItem{key: math.Float64bits(d), node: v})
}

// run executes Dijkstra from the given sources, stopping when `limit` nodes
// have been settled (limit < 0 means no limit) or when the next settle
// distance would be >= radius (radius < 0 means no radius bound; strict:
// nodes at exactly radius are NOT settled).
func (s *SSSP) run(sources []NodeID, limit int, radius float64) {
	s.begin()
	for _, src := range sources {
		s.relax(src, 0, None, src)
	}
	for s.queue.size > 0 {
		if limit >= 0 && len(s.order) >= limit {
			return
		}
		it := s.queue.pop()
		v, d := it.node, math.Float64frombits(it.key)
		if s.settled[v] == s.epoch || d != s.dist[v] {
			continue // stale entry
		}
		if radius >= 0 && d >= radius {
			return
		}
		s.settled[v] = s.epoch
		s.order = append(s.order, v)
		for _, e := range s.g.adj[v] {
			s.relax(e.To, d+e.Weight, v, s.nearest[v])
		}
	}
}

// Run computes shortest paths from src to every reachable node.
func (s *SSSP) Run(src NodeID) { s.run([]NodeID{src}, -1, -1) }

// RunK computes shortest paths from src until k nodes (including src) are
// settled. The settle order (Order) then lists the k nodes closest to src in
// (distance, node ID) order — the paper's vicinity V(src) for k =
// Θ(sqrt(n log n)) (§4.2).
func (s *SSSP) RunK(src NodeID, k int) { s.run([]NodeID{src}, k, -1) }

// RunRadius computes shortest paths from src settling exactly the nodes at
// distance strictly less than radius. S4's cluster computation uses this:
// node w contributes itself to the cluster of every v with d(w,v) <
// d(w, l_w) (§4.2 "Comparison with S4").
func (s *SSSP) RunRadius(src NodeID, radius float64) { s.run([]NodeID{src}, -1, radius) }

// RunMulti computes a multi-source shortest-path forest: for every node, the
// distance and tree path to its nearest source (ties to the lowest source
// ID). This yields d(v, l_v) and the landmark trees in one pass.
func (s *SSSP) RunMulti(sources []NodeID) { s.run(sources, -1, -1) }

// Settled reports whether v was settled by the last run.
func (s *SSSP) Settled(v NodeID) bool { return s.settled[v] == s.epoch }

// Dist returns the shortest-path distance to v from the last run's
// source(s), or +Inf if v was not settled.
func (s *SSSP) Dist(v NodeID) float64 {
	if s.settled[v] != s.epoch {
		return Inf
	}
	return s.dist[v]
}

// Parent returns the predecessor of v on its shortest path, or None.
func (s *SSSP) Parent(v NodeID) NodeID {
	if s.settled[v] != s.epoch {
		return None
	}
	return s.parent[v]
}

// Source returns the source that settled v in a multi-source run (the
// nearest landmark, in the protocol's terms), or None if unsettled.
func (s *SSSP) Source(v NodeID) NodeID {
	if s.settled[v] != s.epoch {
		return None
	}
	return s.nearest[v]
}

// Order returns the settle order of the last run. The slice is reused by the
// next run; copy it if it must survive.
func (s *SSSP) Order() []NodeID { return s.order }

// PathTo returns the node path source⇝v from the last run (inclusive of
// both endpoints), or nil if v was not settled.
func (s *SSSP) PathTo(v NodeID) []NodeID {
	if s.settled[v] != s.epoch {
		return nil
	}
	var rev []NodeID
	for u := v; u != None; u = s.parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ForEachSource fans an all-sources Dijkstra sweep out over the parallel
// worker pool: visit(s, i, sources[i]) runs once per source with a
// worker-private SSSP scratch; visit calls whichever Run variant it needs
// (Run, RunK, RunRadius) and reads the results off s. The graph is
// finalized up front so workers only ever read it; visit must confine
// writes to source-indexed (or worker-private) storage.
func ForEachSource(g *Graph, sources []NodeID, visit func(s *SSSP, i int, src NodeID)) {
	if !g.Finalized() {
		g.Finalize()
	}
	parallel.RunScratch(len(sources),
		func() *SSSP { return NewSSSP(g) },
		func(s *SSSP, i int) { visit(s, i, sources[i]) })
}

// AllNodes returns the slice [0..g.N()) for full-graph sweeps.
func AllNodes(g *Graph) []NodeID {
	out := make([]NodeID, g.N())
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// FirstHopTo returns the first hop on the shortest path from the (single)
// source of the last run toward v, or None if v is the source or unsettled.
func (s *SSSP) FirstHopTo(v NodeID) NodeID {
	if s.settled[v] != s.epoch || s.parent[v] == None {
		return None
	}
	u := v
	for s.parent[u] != None && s.parent[s.parent[u]] != None {
		u = s.parent[u]
	}
	if s.parent[u] == None {
		return None
	}
	return u
}
