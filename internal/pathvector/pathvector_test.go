package pathvector

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/sim"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

func runProtocol(t *testing.T, g *graph.Graph, cfg Config) *Protocol {
	t.Helper()
	var eng sim.Engine
	p := New(g, &eng, cfg)
	p.Start()
	_, quiesced := eng.Run(200_000_000)
	if !quiesced {
		t.Fatal("protocol did not converge")
	}
	return p
}

func TestFullModeConvergesToShortestPaths(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(1)), 60, 240)
	p := runProtocol(t, g, Config{Mode: ModeFull})
	s := graph.NewSSSP(g)
	for v := 0; v < g.N(); v++ {
		s.Run(graph.NodeID(v))
		for dst := 0; dst < g.N(); dst++ {
			if v == dst {
				continue
			}
			want := s.Dist(graph.NodeID(dst))
			got := p.BestDist(graph.NodeID(v), graph.NodeID(dst))
			if got != want {
				t.Fatalf("dist(%d,%d)=%v want %v", v, dst, got, want)
			}
			// Path must be valid and match the distance.
			path := p.BestPath(graph.NodeID(v), graph.NodeID(dst))
			if path[0] != graph.NodeID(v) || path[len(path)-1] != graph.NodeID(dst) {
				t.Fatalf("path endpoints wrong")
			}
			if g.PathLength(path) != want {
				t.Fatalf("path length mismatch")
			}
		}
	}
}

func TestFullModeWeightedGraph(t *testing.T) {
	g := topology.Geometric(rand.New(rand.NewSource(2)), 80, 8)
	p := runProtocol(t, g, Config{Mode: ModeFull})
	s := graph.NewSSSP(g)
	for v := 0; v < g.N(); v += 7 {
		s.Run(graph.NodeID(v))
		for dst := 0; dst < g.N(); dst++ {
			if v == dst {
				continue
			}
			if got, want := p.BestDist(graph.NodeID(v), graph.NodeID(dst)), s.Dist(graph.NodeID(dst)); got != want {
				t.Fatalf("dist(%d,%d)=%v want %v", v, dst, got, want)
			}
		}
	}
}

func TestVicinityModeMatchesStaticSimulator(t *testing.T) {
	// The §5 "accuracy of static simulation" cross-check, as an exact
	// equality on vicinity membership and distances.
	g := topology.Gnm(rand.New(rand.NewSource(3)), 150, 600)
	env := static.NewEnv(g, 3)
	isLM := env.IsLM
	K := 20
	p := runProtocol(t, g, Config{Mode: ModeVicinity, K: K, IsLandmark: isLM})
	want := vicinity.Build(g, K, nil)
	for v := 0; v < g.N(); v++ {
		got := p.VicinityMembers(graph.NodeID(v))
		wantSet := want.Of(graph.NodeID(v))
		if len(got) != wantSet.Size() {
			t.Fatalf("node %d vicinity size %d want %d (members %v)", v, len(got), wantSet.Size(), got)
		}
		for _, m := range got {
			e, ok := wantSet.Find(m)
			if !ok {
				t.Fatalf("node %d: member %d not in static vicinity", v, m)
			}
			if d := p.BestDist(graph.NodeID(v), m); m != graph.NodeID(v) && d != e.Dist {
				t.Fatalf("node %d member %d dist %v want %v", v, m, d, e.Dist)
			}
		}
	}
}

func TestVicinityModeWeighted(t *testing.T) {
	g := topology.Geometric(rand.New(rand.NewSource(4)), 120, 8)
	env := static.NewEnv(g, 4)
	K := 15
	p := runProtocol(t, g, Config{Mode: ModeVicinity, K: K, IsLandmark: env.IsLM})
	want := vicinity.Build(g, K, nil)
	for v := 0; v < g.N(); v++ {
		got := p.VicinitySet(graph.NodeID(v))
		wantSet := want.Of(graph.NodeID(v))
		if got.Size() != wantSet.Size() {
			t.Fatalf("node %d vicinity size %d want %d", v, got.Size(), wantSet.Size())
		}
		for _, e := range wantSet.Entries {
			ge, ok := got.Find(e.Node)
			if !ok || ge.Dist != e.Dist {
				t.Fatalf("node %d: member %d missing or wrong dist", v, e.Node)
			}
		}
	}
}

func TestLandmarkDistances(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(5)), 200, 800)
	env := static.NewEnv(g, 5)
	p := runProtocol(t, g, Config{Mode: ModeLandmarksOnly, IsLandmark: env.IsLM})
	got := p.LMDistances()
	for v := 0; v < g.N(); v++ {
		if got[v] != env.LMDist[v] {
			t.Fatalf("LMDist[%d]=%v want %v", v, got[v], env.LMDist[v])
		}
		// Non-landmark destinations must not be stored.
		if p.DataEntries(graph.NodeID(v)) > len(env.Landmarks)+1 {
			t.Fatalf("node %d stores too many destinations in landmarks-only mode", v)
		}
	}
}

func TestClusterModeMatchesS4Definition(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(6)), 150, 600)
	env := static.NewEnv(g, 6)
	p := runProtocol(t, g, Config{Mode: ModeCluster, IsLandmark: env.IsLM, LMDist: env.LMDist})
	s := graph.NewSSSP(g)
	for v := 0; v < g.N(); v += 11 {
		s.Run(graph.NodeID(v))
		for dst := 0; dst < g.N(); dst++ {
			if v == dst {
				continue
			}
			inCluster := s.Dist(graph.NodeID(dst)) < env.LMDist[dst]
			stored := p.BestDist(graph.NodeID(v), graph.NodeID(dst)) < graph.Inf
			if env.IsLM[dst] {
				if !stored {
					t.Fatalf("landmark %d not stored at %d", dst, v)
				}
				continue
			}
			if inCluster != stored {
				t.Fatalf("cluster membership mismatch at (%d,%d): want %v", v, dst, inCluster)
			}
			if stored {
				if got := p.BestDist(graph.NodeID(v), graph.NodeID(dst)); got != s.Dist(graph.NodeID(dst)) {
					t.Fatalf("cluster dist mismatch at (%d,%d)", v, dst)
				}
			}
		}
	}
}

func TestForgetfulReducesControlState(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(7)), 150, 600)
	env := static.NewEnv(g, 7)
	cfg := Config{Mode: ModeVicinity, K: 20, IsLandmark: env.IsLM}
	p1 := runProtocol(t, g, cfg)
	cfg.Forgetful = true
	p2 := runProtocol(t, g, cfg)
	tot1, tot2 := 0, 0
	for v := 0; v < g.N(); v++ {
		tot1 += p1.ControlEntries(graph.NodeID(v))
		tot2 += p2.ControlEntries(graph.NodeID(v))
		// Data planes must agree.
		m1 := p1.VicinityMembers(graph.NodeID(v))
		m2 := p2.VicinityMembers(graph.NodeID(v))
		if len(m1) != len(m2) {
			t.Fatalf("forgetful changed vicinity size at %d", v)
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("forgetful changed vicinity at %d", v)
			}
		}
	}
	if tot2 >= tot1 {
		t.Errorf("forgetful routing should cut control state: %d vs %d", tot2, tot1)
	}
}

func TestMessagesCountedAndDeterministic(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(8)), 100, 400)
	env := static.NewEnv(g, 8)
	cfg := Config{Mode: ModeVicinity, K: 15, IsLandmark: env.IsLM}
	p1 := runProtocol(t, g, cfg)
	p2 := runProtocol(t, g, cfg)
	if p1.Messages == 0 {
		t.Fatal("no messages counted")
	}
	if p1.Messages != p2.Messages {
		t.Fatalf("message count must be deterministic: %d vs %d", p1.Messages, p2.Messages)
	}
}

func TestVicinityMessagesScaleBelowFull(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(9)), 200, 800)
	env := static.NewEnv(g, 9)
	full := runProtocol(t, g, Config{Mode: ModeFull})
	vic := runProtocol(t, g, Config{Mode: ModeVicinity, K: vicinity.DefaultK(200), IsLandmark: env.IsLM})
	if vic.Messages >= full.Messages {
		t.Errorf("vicinity PV should send fewer messages than full PV: %d vs %d",
			vic.Messages, full.Messages)
	}
	t.Logf("messages/node: full=%.0f vicinity=%.0f",
		float64(full.Messages)/200, float64(vic.Messages)/200)
}

func TestLineTopologyVicinity(t *testing.T) {
	// On a line with K=3, V(v) must be v and its two nearest (tie to
	// lower IDs at the ends).
	g := topology.Line(9)
	isLM := make([]bool, 9)
	isLM[4] = true
	p := runProtocol(t, g, Config{Mode: ModeVicinity, K: 3, IsLandmark: isLM})
	want := vicinity.Build(g, 3, nil)
	for v := 0; v < 9; v++ {
		got := p.VicinityMembers(graph.NodeID(v))
		ws := want.Of(graph.NodeID(v))
		if len(got) != ws.Size() {
			t.Fatalf("node %d vicinity %v want size %d", v, got, ws.Size())
		}
		for _, m := range got {
			if !ws.Contains(m) {
				t.Fatalf("node %d vicinity %v: %d unexpected", v, got, m)
			}
		}
	}
}

// scanWorstVic is the vicinity heap's oracle, an O(k) scan: among the
// vicinity members holding a route, the one with the largest (dist, id),
// or -1 if none holds a route.
func scanWorstVic(nd *node) int32 {
	worst, worstD, worstID := int32(-1), -1.0, graph.None
	for s, sl := range nd.slots {
		if sl.hpos < 0 || sl.best.path == nil {
			continue
		}
		if d := sl.best.dist; worst < 0 || d > worstD || (d == worstD && sl.dst > worstID) {
			worst, worstD, worstID = int32(s), d, sl.dst
		}
	}
	return worst
}

// topErr checks that every node's heap top is the member the scan picks.
func topErr(p *Protocol) error {
	for v := range p.nodes {
		nd := &p.nodes[v]
		if got, want := nd.worstVic(), scanWorstVic(nd); got != want {
			return fmt.Errorf("node %d: heap top %d, scan finds %d", v, got, want)
		}
	}
	return nil
}

// layoutErr checks every node's slot bookkeeping: the index and the free
// list cover the slots exactly, each indexed slot holds its destination,
// heap positions are consistent and the heap is ordered.
func layoutErr(p *Protocol) error {
	for v := range p.nodes {
		nd := &p.nodes[v]
		if len(nd.index)+len(nd.free) != len(nd.slots) {
			return fmt.Errorf("node %d: %d indexed + %d free slots, want %d", v, len(nd.index), len(nd.free), len(nd.slots))
		}
		for dst, s := range nd.index {
			if got := nd.slots[s].dst; got != dst {
				return fmt.Errorf("node %d: index maps %d to slot %d, which holds %d", v, dst, s, got)
			}
		}
		members := 0
		for s := range nd.slots {
			if nd.slots[s].hpos >= 0 {
				members++
			}
		}
		if members != len(nd.heap) {
			return fmt.Errorf("node %d: %d slots claim a heap position, heap holds %d", v, members, len(nd.heap))
		}
		for i, s := range nd.heap {
			if got := nd.slots[s].hpos; got != int32(i) {
				return fmt.Errorf("node %d: slot %d at heap index %d records %d", v, s, i, got)
			}
			if i > 0 && nd.vicWorse(s, nd.heap[(i-1)/2]) {
				return fmt.Errorf("node %d: heap order violated at index %d", v, i)
			}
		}
	}
	return nil
}

// runChecked runs eng to quiescence one event at a time, checking every
// node's heap top after each event and the whole layout at the end.
func runChecked(t *testing.T, eng *sim.Engine, p *Protocol) {
	t.Helper()
	for eng.Pending() > 0 {
		eng.Run(1)
		if err := topErr(p); err != nil {
			t.Fatalf("after step %d: %v", eng.Steps(), err)
		}
	}
	if err := layoutErr(p); err != nil {
		t.Fatal(err)
	}
}

// checkVicinities asserts that every node's vicinity has the members and
// distances of the static computation on g.
func checkVicinities(t *testing.T, p *Protocol, g *graph.Graph, k int) {
	t.Helper()
	want := vicinity.Build(g, k, nil)
	for a := 0; a < g.N(); a++ {
		got := p.VicinityMembers(graph.NodeID(a))
		ws := want.Of(graph.NodeID(a))
		if len(got) != ws.Size() {
			t.Fatalf("node %d vicinity size %d want %d", a, len(got), ws.Size())
		}
		for _, m := range got {
			e, ok := ws.Find(m)
			if !ok {
				t.Fatalf("node %d: member %d not in the static vicinity", a, m)
			}
			if m != graph.NodeID(a) && p.BestDist(graph.NodeID(a), m) != e.Dist {
				t.Fatalf("node %d member %d dist %v want %v", a, m, p.BestDist(graph.NodeID(a), m), e.Dist)
			}
		}
	}
}

// TestVicinityHeapMatchesScan drives convergence and a sequence of three
// non-bridge failures event by event, checking after every event that each
// node's heap top is the member the O(k) scan picks, and after every
// refresh that the vicinities equal the static ones on the failed graph.
func TestVicinityHeapMatchesScan(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, forgetful := range []bool{false, true} {
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed))
			g := topology.Gnm(rng, 40, 120)
			if !g.Connected() {
				t.Fatalf("seed %d: topology not connected", seed)
			}
			env := static.NewEnv(g, seed)
			k := vicinity.DefaultK(g.N())
			var eng sim.Engine
			p := New(g, &eng, Config{Mode: ModeVicinity, K: k, IsLandmark: env.IsLM, Forgetful: forgetful})
			p.Start()
			runChecked(t, &eng, p)
			checkVicinities(t, p, g, k)

			cur := g
			for failed := 0; failed < 3; {
				u := graph.NodeID(rng.Intn(g.N()))
				es := g.Neighbors(u)
				v := es[rng.Intn(len(es))].To
				next := withoutEdge(cur, u, v)
				if !p.LinkAlive(u, v) || !next.Connected() {
					continue
				}
				cur = next
				failed++
				if err := p.FailLink(u, v); err != nil {
					t.Fatal(err)
				}
				p.PruneStale()
				runChecked(t, &eng, p)
				// RefreshUntilStable's rounds, stepped so every event is
				// checked; the call after it confirms the fixpoint.
				for prev, r := p.tableFingerprint(), 1; ; r++ {
					if r > 16 {
						t.Fatalf("seed %d: no refresh fixpoint", seed)
					}
					p.Refresh()
					runChecked(t, &eng, p)
					fp := p.tableFingerprint()
					if fp == prev {
						break
					}
					prev = fp
				}
				p.RefreshUntilStable(16)
				if err := errors.Join(topErr(p), layoutErr(p)); err != nil {
					t.Fatal(err)
				}
				checkVicinities(t, p, cur, k)
			}
		}
	}
}

// BenchmarkConvergeAndRefresh measures the control plane's two costs on
// G(n,m) n=256 with average degree 8: convergence from cold, then one
// failure trial on a clone (FailLink, PruneStale and re-convergence, then
// refresh rounds to a fixpoint). It reports simulator steps per op.
func BenchmarkConvergeAndRefresh(b *testing.B) {
	const n = 256
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(1)), n, 8)
	env := static.NewEnv(g, 1)
	cfg := Config{Mode: ModeVicinity, K: vicinity.DefaultK(n), IsLandmark: env.IsLM}
	bridges := g.Bridges()
	var link graph.EdgeKey
	for id, e := range g.EdgeList() {
		if !bridges[id] {
			link = e
			break
		}
	}
	b.ReportAllocs()
	var steps, ops uint64
	for b.Loop() {
		ops++
		var eng sim.Engine
		p := New(g, &eng, cfg)
		p.Start()
		if _, q := eng.Run(0); !q {
			b.Fatal("convergence did not quiesce")
		}
		var trial sim.Engine
		c, err := p.Clone(&trial)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.FailLink(link.U, link.V); err != nil {
			b.Fatal(err)
		}
		c.PruneStale()
		if _, q := trial.Run(0); !q {
			b.Fatal("re-convergence did not quiesce")
		}
		c.RefreshUntilStable(16)
		steps += eng.Steps() + trial.Steps()
	}
	b.ReportMetric(float64(steps)/float64(ops), "steps/op")
}
