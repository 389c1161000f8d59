package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"disco/internal/core"
	"disco/internal/eval"
	"disco/internal/graph"
	"disco/internal/pathtree"
	"disco/internal/s4"
	"disco/internal/snapshot"
	"disco/internal/static"
)

// stretch-sweep: the Fig. 3 shape. Uniform sampled pairs fan out over
// busyProcs goroutines, each owning Disco and S4 forks over one lazy
// destination tree; per pair it runs the stretch denominator, Disco first
// and later packets (No Path Knowledge shortcutting) and S4 first and later
// packets on an exact snapshot. The throughput is pairs per second; the
// latency is one pair's whole evaluation.

const (
	fallbackPairs = 256 // the leading pairs whose Disco fallbacks are an exact count
	maxFirst      = 7.0 // Disco first-packet stretch bound
	maxLater      = 3.0 // Disco later-packet stretch bound
)

type sweepSetup struct {
	g     *graph.Graph
	env   *static.Env
	disco *core.Disco
	s4    *s4.S4
	snap  *snapshot.Snapshot
	err   error
}

// pairTimes are one pair's per-layer call durations.
type pairTimes struct {
	short, first, later, s4First, s4Later time.Duration
}

// sweepWorker is one goroutine's forks and tallies.
type sweepWorker struct {
	d      *core.Disco
	s4     *s4.S4
	pair   samples
	traced samples // pair durations of traced pairs (trace runs only)
	plain  samples // pair durations of untraced pairs (trace runs only)
	calls  []pairTimes
	fails  []string
	checks int64
}

func runStretchSweep(cfg config, rep *report) error {
	n := cfg.n
	var gens, envs, builds samples
	st, setup := repeatSetup(3, 0, func(i int) (*sweepSetup, time.Duration) {
		req := fmt.Sprintf("setup-%d", i)
		root := rep.tr.begin("setup", req, 0)
		s := &sweepSetup{}
		gens.add(rep.tr.call("topology.gen", req, root.id, func() { s.g = eval.BuildTopo(eval.TopoRouterLike, n, cfg.seed) }))
		envs.add(rep.tr.call("static.env", req, root.id, func() { s.env = static.NewEnv(s.g, cfg.seed) }))
		rep.tr.call("core.new", req, root.id, func() {
			s.disco = core.NewDisco(s.env, core.WithSeed(cfg.seed))
			s.s4 = s4.New(s.env, 1)
		})
		builds.add(rep.tr.call("snapshot.build", req, root.id, func() {
			s.snap, s.err = snapshot.Build(s.g, s.disco.ND.K, s.env.Landmarks)
		}))
		if s.err == nil {
			s.disco.ND.UseSnapshot(s.snap)
			s.s4.UseSnapshot(s.snap)
		}
		return s, root.end()
	})
	if st.err != nil {
		return fmt.Errorf("stretch-sweep set-up: %w", st.err)
	}
	rep.endToEnd("setup_s", setup)
	rep.perLayer("topology.gen_s", gens.quantile(0.5))
	rep.perLayer("static.env_s", envs.quantile(0.5))
	rep.perLayer("snapshot.build_s", builds.quantile(0.5))
	bpn := st.snap.Bytes() / int64(n)
	rep.perLayer("snapshot.bytes_per_node", float64(bpn))
	rep.count("snapshot.bytes_per_node", bpn)

	// Timed phase: workers claim pair indices until the deadline.
	fallbacks := make([]int32, fallbackPairs) // per leading pair, written by its one worker
	var next atomic.Int64
	workers := make([]*sweepWorker, busyProcs)
	end := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	gc0 := gcPauseTotal()
	start := time.Now()
	var wg sync.WaitGroup
	for w := range workers {
		dest := pathtree.NewLazy(st.g)
		sw := &sweepWorker{d: st.disco.ForkWith(dest), s4: st.s4.ForkWith(dest)}
		workers[w] = sw
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				f0, _ := sw.d.Fallbacks()
				t0 := time.Now()
				traced := rep.tr.on && i%2 == 0
				pt := sw.route(rep.tr, st.g, i, traced, cfg.seed)
				d := time.Since(t0)
				sw.pair.add(d)
				if rep.tr.on {
					sw.calls = append(sw.calls, pt)
					if traced {
						sw.traced.add(d)
					} else {
						sw.plain.add(d)
					}
				}
				if i < fallbackPairs {
					f1, _ := sw.d.Fallbacks()
					fallbacks[i] = int32(f1 - f0)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	rep.perLayer("runtime.gc_pause_ms", 1e3*(gcPauseTotal()-gc0).Seconds())

	var pair, traced, plain samples
	var calls []pairTimes
	for _, sw := range workers {
		pair = append(pair, sw.pair...)
		traced = append(traced, sw.traced...)
		plain = append(plain, sw.plain...)
		calls = append(calls, sw.calls...)
		rep.addChecks(sw.checks, sw.fails)
	}
	rep.endToEnd("throughput_per_s", float64(len(pair))/elapsed.Seconds())
	rep.workloadMetric("sweep_pairs_per_s", "1/s", float64(len(pair))/elapsed.Seconds())
	rep.endToEnd("latency_mean_ms", 1e3*pair.mean())
	rep.endToEnd("latency_p90_ms", 1e3*pair.quantile(0.9))
	rep.notef("%d pairs over %.1fs on %d goroutines", len(pair), elapsed.Seconds(), busyProcs)
	if rep.tr.on {
		layer := func(name string, q float64, get func(pairTimes) time.Duration) {
			var s samples
			for _, c := range calls {
				s.add(get(c))
			}
			rep.perLayer(name, 1e6*s.quantile(q))
		}
		layer("graph.shortest_dist_us_p50", 0.5, func(c pairTimes) time.Duration { return c.short })
		layer("graph.shortest_dist_us_p99", 0.99, func(c pairTimes) time.Duration { return c.short })
		layer("core.disco_first_us_p50", 0.5, func(c pairTimes) time.Duration { return c.first })
		layer("core.disco_first_us_p99", 0.99, func(c pairTimes) time.Duration { return c.first })
		layer("core.disco_later_us_p50", 0.5, func(c pairTimes) time.Duration { return c.later })
		layer("core.disco_later_us_p99", 0.99, func(c pairTimes) time.Duration { return c.later })
		layer("s4.first_us_p50", 0.5, func(c pairTimes) time.Duration { return c.s4First })
		layer("s4.later_us_p50", 0.5, func(c pairTimes) time.Duration { return c.s4Later })
		if len(traced) > 0 && len(plain) > 0 {
			rep.perLayer("trace.overhead_pct", 100*(traced.mean()/plain.mean()-1))
		}
	}

	// Untimed check: the leading pairs' fallbacks, recounted on a fresh
	// fork, must equal what the timed workers saw.
	lead := min(fallbackPairs, len(pair))
	var timedFallbacks int64
	for _, f := range fallbacks[:lead] {
		timedFallbacks += int64(f)
	}
	d := st.disco.ForkWith(pathtree.NewLazy(st.g))
	for i := 0; i < lead; i++ {
		si, ti := pairAt(cfg.seed, i, n)
		d.FirstRoute(graph.NodeID(si), graph.NodeID(ti), core.ShortcutNoPathKnowledge)
	}
	recount, _ := d.Fallbacks()
	rep.check(int64(recount) == timedFallbacks, "Disco fallbacks over the first %d pairs: timed %d, recounted %d", lead, timedFallbacks, recount)
	if lead == fallbackPairs {
		rep.count("core.disco_fallbacks", int64(recount))
	}
	rep.perLayer("core.disco_fallbacks", float64(recount))

	rep.endToEnd("heap_live_mb", liveHeapMB())
	runtime.KeepAlive(st)
	return nil
}

// route evaluates pair i and checks its four routes: each must be a
// contiguous s→t walk, Disco's first packet within stretch 7 and its later
// packets within stretch 3.
func (sw *sweepWorker) route(tr *tracer, g *graph.Graph, i int, traced bool, seed int64) pairTimes {
	si, ti := pairAt(seed, i, g.N())
	s, t := graph.NodeID(si), graph.NodeID(ti)
	req := ""
	if traced {
		req = fmt.Sprintf("pair-%d", i)
	}
	root := tr.begin("pair", req, 0)
	var pt pairTimes
	var short float64
	var first, later, s4First, s4Later []graph.NodeID
	pt.short = tr.call("graph.shortest_dist", req, root.id, func() { short = sw.d.ND.ShortestDist(s, t) })
	pt.first = tr.call("core.disco_first", req, root.id, func() { first = sw.d.FirstRoute(s, t, core.ShortcutNoPathKnowledge) })
	pt.later = tr.call("core.disco_later", req, root.id, func() { later = sw.d.LaterRoute(s, t, core.ShortcutNoPathKnowledge) })
	pt.s4First = tr.call("s4.first", req, root.id, func() { s4First = sw.s4.FirstRoute(s, t) })
	pt.s4Later = tr.call("s4.later", req, root.id, func() { s4Later = sw.s4.LaterRoute(s, t) })
	root.end()

	for _, r := range []struct {
		name  string
		route []graph.NodeID
		bound float64
	}{{"disco first", first, maxFirst}, {"disco later", later, maxLater}, {"s4 first", s4First, 0}, {"s4 later", s4Later, 0}} {
		sw.checks++
		switch {
		case !isWalk(g, r.route, s, t):
			sw.fails = append(sw.fails, fmt.Sprintf("pair %d (%d-%d): %s route is not a contiguous walk", i, s, t, r.name))
		case r.bound > 0 && g.PathLength(r.route) > r.bound*short+1e-9:
			sw.fails = append(sw.fails, fmt.Sprintf("pair %d (%d-%d): %s stretch %.3f > %g", i, s, t, r.name, g.PathLength(r.route)/short, r.bound))
		}
	}
	return pt
}
