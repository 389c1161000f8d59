package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The comparison heap the radix queue replaced, kept as the reference
// settle order: a binary min-heap over (dist, node) with lazy deletion.

type heapItem struct {
	dist float64
	node NodeID
}

type minHeap []heapItem

func (h minHeap) less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}

func (h *minHeap) push(it heapItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h).less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *minHeap) pop() heapItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && (*h).less(l, s) {
			s = l
		}
		if r < n && (*h).less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		(*h)[i], (*h)[s] = (*h)[s], (*h)[i]
		i = s
	}
	return top
}

// oracleResult is everything a run exposes: the settle order and, per
// node, whether it settled and its distance, parent and source.
type oracleResult struct {
	order   []NodeID
	settled []bool
	dist    []float64
	parent  []NodeID
	source  []NodeID
}

// oracleRun is SSSP.run over the comparison heap, with the same relax
// rule (including the lowest-source multi-source tie-break) and the same
// limit and radius stop rules, on fresh arrays.
func oracleRun(g *Graph, sources []NodeID, limit int, radius float64) oracleResult {
	n := g.N()
	dist := make([]float64, n)
	parent := make([]NodeID, n)
	nearest := make([]NodeID, n)
	reached := make([]bool, n)
	settled := make([]bool, n)
	var h minHeap
	relax := func(v NodeID, d float64, via, src NodeID) {
		if reached[v] {
			if settled[v] || d >= dist[v] {
				if d == dist[v] && !settled[v] && src < nearest[v] {
					nearest[v] = src
					parent[v] = via
				}
				return
			}
		}
		reached[v] = true
		dist[v], parent[v], nearest[v] = d, via, src
		h.push(heapItem{dist: d, node: v})
	}
	var order []NodeID
	for _, src := range sources {
		relax(src, 0, None, src)
	}
	for len(h) > 0 {
		if limit >= 0 && len(order) >= limit {
			break
		}
		it := h.pop()
		v := it.node
		if settled[v] || it.dist != dist[v] {
			continue
		}
		if radius >= 0 && it.dist >= radius {
			break
		}
		settled[v] = true
		order = append(order, v)
		for _, e := range g.adj[v] {
			relax(e.To, it.dist+e.Weight, v, nearest[v])
		}
	}
	res := oracleResult{order: order, settled: settled,
		dist: make([]float64, n), parent: make([]NodeID, n), source: make([]NodeID, n)}
	for v := range settled {
		res.dist[v], res.parent[v], res.source[v] = Inf, None, None
		if settled[v] {
			res.dist[v], res.parent[v], res.source[v] = dist[v], parent[v], nearest[v]
		}
	}
	return res
}

// oracleWeights mixes the weights that stress the key order: zero (a
// relaxation that keeps the current distance), decimal fractions whose
// float sums tie only after rounding (0.1+0.2 == 0.30000000000000004 !=
// 0.3), a weight that vanishes next to 1e16 (1e16+1 == 1e16), the
// smallest subnormal, and 1e308, whose sums overflow to +Inf.
var oracleWeights = []float64{
	0, 1, 2, 0.1, 0.2, 0.3, 0.30000000000000004, 0.5, 1e16, 3,
	math.SmallestNonzeroFloat64, 1e308, 0.7, 1,
}

// sssp query kinds, in the order an input byte selects them.
const (
	qRun = iota
	qRunK
	qRunRadius
	qRunMulti
	qKinds
)

type oracleQuery struct {
	kind    int
	sources []NodeID
	k       int
	radius  float64
}

func (q oracleQuery) String() string {
	return fmt.Sprintf("kind=%d sources=%v k=%d radius=%v", q.kind, q.sources, q.k, q.radius)
}

// runQuery runs q on s and returns the oracle's answer for the same query.
func runQuery(s *SSSP, q oracleQuery) oracleResult {
	g := s.Graph()
	switch q.kind {
	case qRun:
		s.Run(q.sources[0])
		return oracleRun(g, q.sources[:1], -1, -1)
	case qRunK:
		s.RunK(q.sources[0], q.k)
		return oracleRun(g, q.sources[:1], q.k, -1)
	case qRunRadius:
		s.RunRadius(q.sources[0], q.radius)
		return oracleRun(g, q.sources[:1], -1, q.radius)
	default:
		s.RunMulti(q.sources)
		return oracleRun(g, q.sources, -1, -1)
	}
}

// checkQuery asserts that s answers q bit for bit like the heap oracle.
func checkQuery(t *testing.T, s *SSSP, q oracleQuery) {
	t.Helper()
	want := runQuery(s, q)
	got := s.Order()
	if len(got) != len(want.order) {
		t.Fatalf("%v: settled %d nodes, oracle %d\n got %v\nwant %v", q, len(got), len(want.order), got, want.order)
	}
	for i := range got {
		if got[i] != want.order[i] {
			t.Fatalf("%v: Order[%d]=%d, oracle %d\n got %v\nwant %v", q, i, got[i], want.order[i], got, want.order)
		}
	}
	for v := NodeID(0); int(v) < s.Graph().N(); v++ {
		if s.Settled(v) != want.settled[v] ||
			math.Float64bits(s.Dist(v)) != math.Float64bits(want.dist[v]) ||
			s.Parent(v) != want.parent[v] || s.Source(v) != want.source[v] {
			t.Fatalf("%v: node %d got settled=%v dist=%v parent=%d source=%d, oracle %v %v %d %d",
				q, v, s.Settled(v), s.Dist(v), s.Parent(v), s.Source(v),
				want.settled[v], want.dist[v], want.parent[v], want.source[v])
		}
	}
}

// oracleGraph builds a graph on n nodes from (u, v, weight-index) byte
// triples. Self-loops are skipped; repeated pairs become parallel edges,
// and nodes no triple touches stay disconnected.
func oracleGraph(n int, edges []byte) *Graph {
	g := New(n)
	for i := 0; i+2 < len(edges); i += 3 {
		u, v := NodeID(int(edges[i])%n), NodeID(int(edges[i+1])%n)
		if u == v {
			continue
		}
		g.AddEdge(u, v, oracleWeights[int(edges[i+2])%len(oracleWeights)])
	}
	g.Finalize()
	return g
}

// oracleQueries decodes queries from 4-byte records: kind, source,
// parameter (k, radius index or source count), and a second source.
// Multi-source queries repeat sources and list them out of order, so the
// lowest-source tie-break is exercised at distance 0 and beyond.
func oracleQueries(n int, data []byte) []oracleQuery {
	var qs []oracleQuery
	for i := 0; i+3 < len(data); i += 4 {
		q := oracleQuery{kind: int(data[i]) % qKinds}
		a, b := NodeID(int(data[i+1])%n), NodeID(int(data[i+3])%n)
		q.sources = []NodeID{a}
		switch q.kind {
		case qRunK:
			q.k = int(data[i+2]) % (n + 2)
		case qRunRadius:
			q.radius = []float64{0, 0.3, 0.30000000000000004, 1, 2.5, 1e16, math.Inf(1)}[int(data[i+2])%7]
		case qRunMulti:
			q.sources = append(q.sources, b)
			for j := 0; j < int(data[i+2])%4; j++ {
				q.sources = append(q.sources, NodeID((int(a)+7*j+3)%n), b)
			}
		}
		qs = append(qs, q)
	}
	return qs
}

// TestSSSPMatchesHeapOracle drives one reused scratch per random graph
// through every Run variant and compares each answer with the comparison
// heap's, bit for bit; half-way through, the epoch counter is pushed to
// its wrap so the wrap-around reset is crossed mid-sequence.
func TestSSSPMatchesHeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(64)
		edges := make([]byte, 3*rng.Intn(3*n+1))
		rng.Read(edges)
		// A third of the graphs draw from every weight, a third from the
		// small ones (0 to 0.5), and a third are 0/1 maps full of ties.
		for i := 2; i < len(edges); i += 3 {
			switch trial % 3 {
			case 1:
				edges[i] %= 8
			case 2:
				edges[i] %= 2
			}
		}
		g := oracleGraph(n, edges)
		queries := make([]byte, 4*24)
		rng.Read(queries)
		s := NewSSSP(g)
		for i, q := range oracleQueries(n, queries) {
			if i == 12 {
				s.epoch = math.MaxUint32 - 1
			}
			checkQuery(t, s, q)
		}
	}
}

// FuzzSSSP decodes bytes into a graph on at most 64 nodes and a sequence
// of queries on one reused scratch, and checks every answer against the
// heap oracle. Layout: byte 0 picks n, byte 1 the number of edge triples,
// byte 2 whether to jump to just before the epoch wrap after the first
// query, so the third runs on a wrapped epoch that the first one used;
// then the triples, then 4-byte query records.
func FuzzSSSP(f *testing.F) {
	seed := make([]byte, 3, 64)
	seed[0], seed[1] = 7, 6
	seed = append(seed, 0, 1, 0, 1, 2, 0, 0, 3, 3, 3, 4, 1, 4, 5, 8, 5, 6, 1)
	seed = append(seed, 0, 0, 0, 0, 1, 3, 4, 0, 2, 6, 2, 0, 3, 0, 3, 2)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%64
		ne := 3 * int(data[1])
		rest := data[3:]
		if ne > len(rest) {
			ne = len(rest) - len(rest)%3
		}
		g := oracleGraph(n, rest[:ne])
		s := NewSSSP(g)
		for i, q := range oracleQueries(n, rest[ne:]) {
			if i == 1 && data[2]&1 == 1 {
				s.epoch = math.MaxUint32 - 1
			}
			checkQuery(t, s, q)
		}
	})
}
