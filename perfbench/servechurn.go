package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"disco/internal/dynamics"
	"disco/internal/eval"
	"disco/internal/forward"
	"disco/internal/graph"
	"disco/internal/parallel"
	"disco/internal/serve"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/vicinity"
)

// serve-churn: serving while repairing. One closed-loop querier probes a
// table-backed serve.Plane while the main goroutine drives an open-loop
// fail/recover storm at a fixed rate through Timeline → Tables.Derive →
// PublishWith, with the repair pool at one worker. The throughput is
// queries per second; the latency is each event's time from when it was
// due to its published epoch.
//
// The measured time is split evenly over serveGraphs topologies drawn from
// the seed, one storm each: per-topology cost differs by seed (the number
// of landmarks varies), and a few topologies per run average that out
// where one long storm on a single topology cannot.

const (
	serveGraphs     = 4
	eventsPerSecond = 4
	probeBlock      = 256  // queries between clock reads and stop checks; each block times one
	probeSampleSpan = 1024 // traced blocks record a span for one query in this many
	checkPairs      = 16   // replayed epochs route this many pairs each
)

type serveSetup struct {
	seed int64
	g    *graph.Graph
	env  *static.Env
	snap *snapshot.Snapshot
	tbls *forward.Tables
	err  error
}

// eventStats sums storms' repair work; every field is an exact count.
type eventStats struct {
	vicRebuilt, vicChanged, rowsRebuilt, rowsPatched, folds int64
}

func (e *eventStats) add(st *snapshot.RepairStats) {
	e.vicRebuilt += int64(st.VicRebuilt)
	e.vicChanged += int64(st.VicChanged)
	e.rowsRebuilt += int64(st.RowsRebuilt)
	e.rowsPatched += int64(st.RowsPatched)
	if st.Folded {
		e.folds++
	}
}

func (e *eventStats) record(rep *report) {
	rep.count("snapshot.vic_rebuilt", e.vicRebuilt)
	rep.count("snapshot.vic_changed", e.vicChanged)
	rep.count("snapshot.rows_rebuilt", e.rowsRebuilt)
	rep.count("snapshot.rows_patched", e.rowsPatched)
	rep.count("snapshot.folds", e.folds)
}

// stormAcc accumulates the timed storms of one run.
type stormAcc struct {
	lat, late, fails, recovers, derives, publishes samples
	sum                                            eventStats
	lazy                                           int64
	q                                              querierResult
	elapsed, gcPause                               time.Duration
	published, retired, stale, answered            uint64
}

func runServeChurn(cfg config, rep *report) error {
	n := cfg.n
	var setups, gens, envs, builds, pres, heaps samples
	var acc stormAcc
	var replayed eventStats
	var allocs uint64
	var bytes int64
	events := eventsPerSecond * cfg.seconds / serveGraphs
	slice := time.Duration(cfg.seconds) * time.Second / serveGraphs
	for gi := 0; gi < serveGraphs; gi++ {
		seed := graphSeed(cfg.seed, gi)
		st, d := repeatSetup(1, 0, func(int) (*serveSetup, time.Duration) {
			req := fmt.Sprintf("g%d/setup", gi)
			root := rep.tr.begin("setup", req, 0)
			s := &serveSetup{seed: seed}
			gens.add(rep.tr.call("topology.gen", req, root.id, func() { s.g = eval.BuildTopo(eval.TopoGnm, n, seed) }))
			envs.add(rep.tr.call("static.env", req, root.id, func() { s.env = static.NewEnv(s.g, seed) }))
			builds.add(rep.tr.call("snapshot.build", req, root.id, func() {
				s.snap, s.err = snapshot.BuildCompact(s.g, vicinity.DefaultK(n), s.env.Landmarks)
			}))
			if s.err == nil {
				pres.add(rep.tr.call("forward.precompile", req, root.id, func() {
					s.tbls = forward.Compile(s.snap, s.env.Landmarks, s.env.LMOf)
					s.tbls.Precompile()
				}))
			}
			return s, root.end()
		})
		if st.err != nil {
			return fmt.Errorf("serve-churn set-up: %w", st.err)
		}
		setups = append(setups, d)
		bytes += st.snap.Bytes()

		last, err := runStorm(rep, st, gi, events, slice, &acc)
		if err != nil {
			return err
		}
		a, err := replayStorm(rep, st, events, &replayed)
		if err != nil {
			return err
		}
		allocs += a
		heaps = append(heaps, liveHeapMB())
		runtime.KeepAlive(last)
	}
	rep.endToEnd("setup_s", setups.quantile(0.5))
	rep.perLayer("topology.gen_s", gens.quantile(0.5))
	rep.perLayer("static.env_s", envs.quantile(0.5))
	rep.perLayer("snapshot.build_s", builds.quantile(0.5))
	rep.perLayer("forward.precompile_s", pres.quantile(0.5))
	bpn := bytes / int64(n*serveGraphs)
	rep.perLayer("snapshot.bytes_per_node", float64(bpn))
	rep.count("snapshot.bytes_per_node", bpn)
	acc.report(rep)
	replayed.record(rep)
	rep.perLayer("snapshot.allocs_per_event", float64(allocs)/float64(len(acc.lat)))
	rep.endToEnd("heap_live_mb", heaps.quantile(0.5))
	return nil
}

// stormState is what a finished storm leaves reachable: the heap metric is
// the median over the storms of the live heap with the storm's state alive.
type stormState struct {
	tl  *dynamics.Timeline
	cur *forward.Tables
}

// churnStep applies event ev of the seed's storm to tl with churn-timeline's
// draw rule: fail 1-2 alive links when nothing is down or on a fair coin,
// otherwise recover 1-2 down links.
func churnStep(tl *dynamics.Timeline, edges []graph.EdgeKey, seed int64, ev int) (fail bool, st *snapshot.RepairStats, err error) {
	rng := parallel.TaskRNG(seed*1000003+29, ev)
	if tl.DownCount() == 0 || rng.Intn(2) == 0 {
		count := 1 + rng.Intn(2)
		if avail := len(edges) - tl.DownCount(); count > avail {
			count = avail
		}
		picked := make(map[graph.EdgeKey]bool, count)
		drawn := make([]graph.EdgeKey, 0, count)
		for len(drawn) < count {
			e := edges[rng.Intn(len(edges))]
			if tl.IsDown(e) || picked[e] {
				continue
			}
			picked[e] = true
			drawn = append(drawn, e)
		}
		st, err = tl.Fail(drawn)
		return true, st, err
	}
	down := tl.Down()
	count := 1 + rng.Intn(min(2, len(down)))
	picked := make(map[int]bool, count)
	drawn := make([]graph.EdgeKey, 0, count)
	for len(drawn) < count {
		i := rng.Intn(len(down))
		if picked[i] {
			continue
		}
		picked[i] = true
		drawn = append(drawn, down[i])
	}
	st, err = tl.Recover(drawn)
	return false, st, err
}

// querierResult is the closed-loop querier's tally.
type querierResult struct {
	queries          int64
	lat              samples // one query's latency per block
	tracedDur, plain time.Duration
	tracedQ, plainQ  int64
}

func (r *querierResult) merge(o querierResult) {
	r.queries += o.queries
	r.lat = append(r.lat, o.lat...)
	r.tracedDur += o.tracedDur
	r.plain += o.plain
	r.tracedQ += o.tracedQ
	r.plainQ += o.plainQ
}

// runQuerier probes the plane with uniform (s, t, first/later) queries
// until stop is set. In a traced run every other block of queries is
// traced, so the tracing overhead is the per-query time difference
// between the two kinds of block.
func runQuerier(plane *serve.Plane, tr *tracer, gi, n int, seed int64, stop *atomic.Bool) querierResult {
	var res querierResult
	rng := rand.New(rand.NewSource(seed ^ 0x5e17e))
	for blk := int64(0); !stop.Load(); blk++ {
		traced := tr.on && blk%2 == 0
		t0 := time.Now()
		for i := int64(0); i < probeBlock; i++ {
			s, t := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			later := rng.Intn(2) == 1
			if i != probeBlock/2 {
				plane.Probe(s, t, later)
				continue
			}
			req := ""
			if traced && blk%(probeSampleSpan/probeBlock) == 0 {
				req = fmt.Sprintf("g%d/query-%d", gi, blk*probeBlock+i)
			}
			o := tr.begin("serve.probe", req, 0)
			plane.Probe(s, t, later)
			res.lat.add(o.end())
		}
		d := time.Since(t0)
		if traced {
			res.tracedDur += d
			res.tracedQ += probeBlock
		} else {
			res.plain += d
			res.plainQ += probeBlock
		}
		res.queries += probeBlock
	}
	return res
}

// runStorm is one timed storm: the querier and the open-loop event stream
// run together for slice on topology gi.
func runStorm(rep *report, st *serveSetup, gi, events int, slice time.Duration, acc *stormAcc) (*stormState, error) {
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(busyProcs)
	base := st.tbls
	plane := serve.NewPlane(st.snap, func(*snapshot.Snapshot) dynamics.Router { return base.NewRouter() })
	defer plane.Close()
	tl := dynamics.NewTimeline(st.snap)
	edges := st.g.EdgeList()

	var stop atomic.Bool
	var qres querierResult
	var wg sync.WaitGroup
	gc0 := gcPauseTotal()
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		qres = runQuerier(plane, rep.tr, gi, st.g.N(), st.seed, &stop)
	}()

	cur := st.tbls
	compiled := func(t *forward.Tables) int64 {
		nodes, rows := t.CompiledShards()
		return int64(nodes + rows)
	}
	afterDerive := compiled(cur)
	period := time.Second / eventsPerSecond
	var stormErr error
	for ev := 0; ev < events; ev++ {
		due := start.Add(time.Duration(ev) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		acc.late.add(time.Since(due))
		acc.lazy += compiled(cur) - afterDerive
		req := fmt.Sprintf("g%d/event-%d", gi, ev)
		root := rep.tr.begin("event", req, 0)
		o := rep.tr.begin("snapshot.fail", req, root.id)
		fail, rs, err := churnStep(tl, edges, st.seed, ev)
		if !fail {
			o.name = "snapshot.recover"
		}
		d := o.end()
		if err != nil {
			stormErr = err
			break
		}
		if fail {
			acc.fails.add(d)
		} else {
			acc.recovers.add(d)
		}
		acc.sum.add(rs)
		var next *forward.Tables
		acc.derives.add(rep.tr.call("forward.derive", req, root.id, func() { next = cur.Derive(tl.Snapshot(), rs) }))
		afterDerive = compiled(next)
		acc.publishes.add(rep.tr.call("serve.publish", req, root.id, func() {
			_, err = plane.PublishWith(tl.Snapshot(), func(*snapshot.Snapshot) dynamics.Router { return next.NewRouter() })
		}))
		cur = next
		root.end()
		acc.lat.add(time.Since(due))
		if err != nil {
			stormErr = err
			break
		}
	}
	if stormErr == nil {
		time.Sleep(time.Until(start.Add(slice)))
	}
	acc.lazy += compiled(cur) - afterDerive
	stop.Store(true)
	wg.Wait()
	acc.elapsed += time.Since(start)
	acc.gcPause += gcPauseTotal() - gc0
	if stormErr != nil {
		return nil, fmt.Errorf("serve-churn storm on topology %d: %w", gi, stormErr)
	}
	plane.Close()
	m := plane.Metrics()
	rep.check(m.Published == m.Retired, "storm plane %d: %d published, %d reclaimed after Close", gi, m.Published, m.Retired)
	acc.published += m.Published
	acc.retired += m.Retired
	acc.stale += m.Stale
	acc.answered += m.Queries
	acc.q.merge(qres)
	return &stormState{tl: tl, cur: cur}, nil
}

// report prints the storms' metrics.
func (acc *stormAcc) report(rep *report) {
	qps := float64(acc.q.queries) / acc.elapsed.Seconds()
	rep.endToEnd("throughput_per_s", qps)
	rep.endToEnd("latency_mean_ms", 1e3*acc.lat.mean())
	rep.endToEnd("latency_p90_ms", 1e3*acc.lat.quantile(0.9))
	rep.workloadMetric("query_qps", "1/s", qps)
	rep.workloadMetric("query_p50_us", "us", 1e6*acc.q.lat.quantile(0.5))
	rep.workloadMetric("query_p99_us", "us", 1e6*acc.q.lat.quantile(0.99))
	rep.workloadMetric("event_p50_ms", "ms", 1e3*acc.lat.quantile(0.5))
	rep.workloadMetric("event_p90_ms", "ms", 1e3*acc.lat.quantile(0.9))
	rep.notef("%d events (%d fail, %d recover) at %d/s on %d topologies over %.1fs; %d queries; %d sampled query latencies",
		len(acc.lat), len(acc.fails), len(acc.recovers), eventsPerSecond, serveGraphs, acc.elapsed.Seconds(), acc.q.queries, len(acc.q.lat))
	rep.perLayer("snapshot.fail_ms_p50", 1e3*acc.fails.quantile(0.5))
	rep.perLayer("snapshot.fail_ms_p90", 1e3*acc.fails.quantile(0.9))
	rep.perLayer("snapshot.recover_ms_p50", 1e3*acc.recovers.quantile(0.5))
	rep.perLayer("snapshot.recover_ms_p90", 1e3*acc.recovers.quantile(0.9))
	rep.perLayer("snapshot.vic_rebuilt", float64(acc.sum.vicRebuilt))
	rep.perLayer("snapshot.rows_rebuilt", float64(acc.sum.rowsRebuilt))
	rep.perLayer("snapshot.rows_patched", float64(acc.sum.rowsPatched))
	rep.perLayer("snapshot.folds", float64(acc.sum.folds))
	if acc.sum.vicRebuilt > 0 {
		rep.perLayer("snapshot.vic_changed_ratio", float64(acc.sum.vicChanged)/float64(acc.sum.vicRebuilt))
	}
	acc.sum.record(rep)
	rep.perLayer("forward.derive_us_p50", 1e6*acc.derives.quantile(0.5))
	rep.perLayer("forward.lazy_compiles", float64(acc.lazy)/float64(len(acc.lat)))
	rep.perLayer("serve.publish_us_p50", 1e6*acc.publishes.quantile(0.5))
	rep.perLayer("serve.probe_us_p50", 1e6*acc.q.lat.quantile(0.5))
	rep.perLayer("serve.probe_us_p99", 1e6*acc.q.lat.quantile(0.99))
	if acc.answered > 0 {
		rep.perLayer("serve.stale_pct", 100*float64(acc.stale)/float64(acc.answered))
	}
	rep.perLayer("serve.epochs_unreclaimed", float64(acc.published-acc.retired))
	rep.perLayer("churn.gen_late_ms_p90", 1e3*acc.late.quantile(0.9))
	rep.perLayer("runtime.gc_pause_ms", 1e3*acc.gcPause.Seconds())
	if q := acc.q; q.tracedQ > 0 && q.plainQ > 0 {
		per := func(d time.Duration, n int64) float64 { return d.Seconds() / float64(n) }
		rep.perLayer("trace.overhead_pct", 100*(per(q.tracedDur, q.tracedQ)/per(q.plain, q.plainQ)-1))
	}
}

// replayStorm re-runs a storm's event sequence untimed, adds its repair
// counts to sum (they must equal the timed storms') and checks every
// epoch: a fixed pair sample is routed on the plane, each connected pair
// must arrive on a contiguous walk of that epoch's graph with later-packet
// stretch at most 3, and a disconnected pair must be refused. It returns
// the heap objects the repairs allocated.
func replayStorm(rep *report, st *serveSetup, events int, sum *eventStats) (uint64, error) {
	tl := dynamics.NewTimeline(st.snap)
	edges := st.g.EdgeList()
	cur := st.tbls
	base := st.tbls
	plane := serve.NewPlane(st.snap, func(*snapshot.Snapshot) dynamics.Router { return base.NewRouter() })
	defer plane.Close()
	var allocs uint64
	for ev := 0; ev < events; ev++ {
		a0 := heapAllocObjects()
		_, rs, err := churnStep(tl, edges, st.seed, ev)
		allocs += heapAllocObjects() - a0
		if err != nil {
			return 0, fmt.Errorf("serve-churn replay: %w", err)
		}
		sum.add(rs)
		next := cur.Derive(tl.Snapshot(), rs)
		seq, err := plane.PublishWith(tl.Snapshot(), func(*snapshot.Snapshot) dynamics.Router { return next.NewRouter() })
		if err != nil {
			return 0, fmt.Errorf("serve-churn replay: %w", err)
		}
		cur = next
		checkEpoch(rep, plane, tl.Snapshot().Graph(), seq, st.seed, ev)
	}
	plane.Close()
	m := plane.Metrics()
	rep.check(m.Published == m.Retired, "replay plane: %d published, %d reclaimed", m.Published, m.Retired)
	return allocs, nil
}

// checkEpoch routes epoch ev's pair sample on the plane and checks every
// answer against shortest paths on the epoch's graph.
func checkEpoch(rep *report, plane *serve.Plane, g *graph.Graph, seq uint64, seed int64, ev int) {
	sp := graph.NewSSSP(g)
	for j := 0; j < checkPairs; j++ {
		si, ti := pairAt(seed^0x7e91, ev*checkPairs+j, g.N())
		s, t := graph.NodeID(si), graph.NodeID(ti)
		sp.Run(s)
		short := sp.Dist(t)
		connected := !math.IsInf(short, 1)
		for _, later := range []bool{false, true} {
			res := plane.Route(s, t, later)
			switch {
			case res.Epoch != seq:
				rep.failf("epoch %d pair %d-%d answered on epoch %d", seq, s, t, res.Epoch)
			case !connected:
				rep.check(!res.OK, "epoch %d pair %d-%d disconnected but delivered", seq, s, t)
			case !res.OK:
				rep.failf("epoch %d pair %d-%d connected but not delivered (later=%v)", seq, s, t, later)
			case !isWalk(g, res.Route, s, t):
				rep.failf("epoch %d pair %d-%d route is not a contiguous walk (later=%v)", seq, s, t, later)
			case later && g.PathLength(res.Route) > 3*short+1e-9:
				rep.failf("epoch %d pair %d-%d later-packet stretch %.3f > 3", seq, s, t, g.PathLength(res.Route)/short)
			default:
				rep.check(true, "")
			}
		}
	}
}

// isWalk reports whether route runs from s to t over links of g.
func isWalk(g *graph.Graph, route []graph.NodeID, s, t graph.NodeID) bool {
	if len(route) == 0 || route[0] != s || route[len(route)-1] != t {
		return false
	}
	for i := 1; i < len(route); i++ {
		if g.PortOf(route[i-1], route[i]) < 0 {
			return false
		}
	}
	return true
}
