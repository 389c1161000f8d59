package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"disco/internal/eval"
	"disco/internal/graph"
	"disco/internal/pathvector"
	"disco/internal/sim"
	"disco/internal/static"
	"disco/internal/vicinity"
)

// control-plane: the event-driven calibration loop. On each of cpGraphs
// topologies drawn from the seed, the path-vector protocol in vicinity mode
// converges from cold, then a fixed list of seeded non-bridge single-link
// failures runs one after another, cycling until the topology's share of
// the measured time is spent: each trial clones the converged instance,
// fails its link, re-converges on triggered updates and then refreshes
// until stable. The throughput is trials per second of protocol time,
// convergence included; the latency is one trial. Trial cost differs by topology (with the number of
// landmarks every table carries), so the run spreads over several.

const (
	cpGraphs      = 4
	trialList     = 4  // failures in each topology's seeded list
	refreshRounds = 16 // RefreshUntilStable cap, as the churn experiment uses
)

type cpSetup struct {
	g     *graph.Graph
	env   *static.Env
	fails []graph.EdgeKey
	err   error
}

// trialOut is one failure trial's measurements.
type trialOut struct {
	clone, triggered, refresh time.Duration
	steps                     uint64
	messages, refreshMsgs     int64
	rounds                    int
}

// cpAcc accumulates one run's convergences and trials.
type cpAcc struct {
	setups, gens, envs                    samples
	converges, calibrations               samples
	trials, clones, triggered, refreshes  samples
	overhead                              samples // per list entry run both ways, trace runs only
	steps, messages, passRounds, passMsgs int64
	useful, rounds                        int
	gc                                    time.Duration
}

func runControlPlane(cfg config, rep *report) error {
	var acc cpAcc
	slice := time.Duration(cfg.seconds) * time.Second / cpGraphs
	var heaps samples
	for gi := 0; gi < cpGraphs; gi++ {
		base, err := controlPlaneGraph(cfg, rep, gi, slice, &acc)
		if err != nil {
			return err
		}
		heaps = append(heaps, liveHeapMB())
		runtime.KeepAlive(base)
	}
	rep.endToEnd("setup_s", acc.setups.quantile(0.5))
	rep.perLayer("topology.gen_s", acc.gens.quantile(0.5))
	rep.perLayer("static.env_s", acc.envs.quantile(0.5))
	rep.perLayer("pathvector.converge_s", acc.converges.quantile(0.5))
	rep.perLayer("sim.steps", float64(acc.steps))
	rep.perLayer("sim.steps_per_s", float64(acc.steps)/acc.converges.sum())
	rep.perLayer("pathvector.messages", float64(acc.messages))
	rep.count("sim.steps", acc.steps)
	rep.count("pathvector.messages", acc.messages)
	if len(acc.trials) > 0 {
		rep.endToEnd("throughput_per_s", float64(len(acc.trials))/(acc.converges.sum()+acc.trials.sum()))
		rep.endToEnd("latency_mean_ms", 1e3*acc.trials.mean())
		rep.endToEnd("latency_p90_ms", 1e3*acc.trials.quantile(0.9))
	}
	rep.notef("%d topologies, %d failure trials over lists of %d", cpGraphs, len(acc.trials), trialList)
	rep.perLayer("pathvector.calibration_s", acc.calibrations.quantile(0.5))
	rep.workloadMetric("converge_s", "s", acc.converges.quantile(0.5))
	rep.workloadMetric("calibration_s", "s", acc.calibrations.quantile(0.5))
	rep.perLayer("pathvector.clone_ms_p50", 1e3*acc.clones.quantile(0.5))
	rep.perLayer("pathvector.triggered_ms_p50", 1e3*acc.triggered.quantile(0.5))
	rep.perLayer("pathvector.refresh_ms_p50", 1e3*acc.refreshes.quantile(0.5))
	rep.perLayer("pathvector.refresh_rounds", float64(acc.passRounds))
	rep.perLayer("pathvector.refresh_messages", float64(acc.passMsgs))
	rep.count("pathvector.refresh_rounds", acc.passRounds)
	rep.count("pathvector.refresh_messages", acc.passMsgs)
	if acc.rounds > 0 {
		rep.perLayer("pathvector.refresh_useful_ratio", float64(acc.useful)/float64(acc.rounds))
	}
	rep.perLayer("runtime.gc_pause_ms", 1e3*acc.gc.Seconds())
	if rep.tr.on {
		rep.perLayer("trace.overhead_pct", 100*acc.overhead.mean())
	}
	rep.endToEnd("heap_live_mb", heaps.quantile(0.5))
	return nil
}

// controlPlaneGraph runs topology gi: set-up, convergence from cold, then
// failure trials until slice is spent (at least one pass over the list).
// It returns the converged instance.
func controlPlaneGraph(cfg config, rep *report, gi int, slice time.Duration, acc *cpAcc) (*pathvector.Protocol, error) {
	n := cfg.n
	seed := graphSeed(cfg.seed, gi)
	st, setup := repeatSetup(5, 100*time.Millisecond, func(i int) (*cpSetup, time.Duration) {
		req := fmt.Sprintf("g%d/setup-%d", gi, i)
		root := rep.tr.begin("setup", req, 0)
		s := &cpSetup{}
		acc.gens.add(rep.tr.call("topology.gen", req, root.id, func() { s.g = eval.BuildTopo(eval.TopoGnm, n, seed) }))
		acc.envs.add(rep.tr.call("static.env", req, root.id, func() { s.env = static.NewEnv(s.g, seed) }))
		s.fails, s.err = drawFailures(s.g, seed, trialList)
		return s, root.end()
	})
	if st.err != nil {
		return nil, fmt.Errorf("control-plane set-up: %w", st.err)
	}
	acc.setups.add(time.Duration(setup * float64(time.Second)))

	k := vicinity.DefaultK(n)
	cfgPV := pathvector.Config{Mode: pathvector.ModeVicinity, K: k, IsLandmark: st.env.IsLM}
	end := time.Now().Add(slice)
	gc0 := gcPauseTotal()
	defer func() { acc.gc += gcPauseTotal() - gc0 }()

	var eng sim.Engine
	var base *pathvector.Protocol
	var steps uint64
	quiesced := false
	req := fmt.Sprintf("g%d/converge", gi)
	root := rep.tr.begin("converge", req, 0)
	rep.tr.call("pathvector.new", req, root.id, func() {
		base = pathvector.New(st.g, &eng, cfgPV)
		base.Start()
	})
	rep.tr.call("sim.run", req, root.id, func() { steps, quiesced = eng.Run(0) })
	converge := root.end()
	rep.check(quiesced, "topology %d: initial convergence did not quiesce", gi)
	acc.converges.add(converge)
	acc.steps += int64(steps)
	acc.messages += base.Messages
	checkVicinities(rep, base, vicinity.Build(st.g, k, nil), fmt.Sprintf("topology %d converged", gi))
	if !quiesced {
		return base, nil
	}

	// Alternate traced and untraced trials so that every list entry runs
	// both ways once the list has been passed twice.
	tracedT := make([]samples, trialList)
	plainT := make([]samples, trialList)
	wants := make([]*vicinity.Table, trialList)
	calibration := converge
	var graphTrials samples
	for i := 0; i < trialList || time.Now().Add(time.Duration(graphTrials.mean()*float64(time.Second))).Before(end); i++ {
		j := i % trialList
		link := st.fails[j]
		if wants[j] == nil {
			wants[j] = vicinity.Build(st.g.WithoutEdges(deadMask(st.g, link)), k, nil)
		}
		traced := rep.tr.on && (i+i/trialList)%2 == 0
		out, err := runTrial(rep, base, link, wants[j], fmt.Sprintf("g%d/trial-%d", gi, i), traced)
		if err != nil {
			rep.failf("topology %d trial %d (link %d-%d): %v", gi, i, link.U, link.V, err)
			continue
		}
		d := out.clone + out.triggered + out.refresh
		graphTrials.add(d)
		if traced {
			tracedT[j].add(d)
		} else {
			plainT[j].add(d)
		}
		acc.clones.add(out.clone)
		acc.triggered.add(out.triggered)
		acc.refreshes.add(out.refresh)
		acc.useful += out.rounds - 1 // the last round only confirms the fixpoint
		acc.rounds += out.rounds
		tag := fmt.Sprintf("g%d.trial%d.", gi, j)
		rep.count(tag+"sim.steps", int64(out.steps))
		rep.count(tag+"pathvector.messages", out.messages)
		if i < trialList {
			calibration += d
			acc.passRounds += int64(out.rounds)
			acc.passMsgs += out.refreshMsgs
		}
	}
	acc.trials = append(acc.trials, graphTrials...)
	acc.calibrations.add(calibration)
	for j := range tracedT {
		if len(tracedT[j]) > 0 && len(plainT[j]) > 0 {
			acc.overhead = append(acc.overhead, tracedT[j].mean()/plainT[j].mean()-1)
		}
	}
	return base, nil
}

// drawFailures draws count distinct non-bridge links from the seed, so no
// trial partitions the graph.
func drawFailures(g *graph.Graph, seed int64, count int) ([]graph.EdgeKey, error) {
	bridges := g.Bridges()
	nonBridge := 0
	for _, b := range bridges {
		if !b {
			nonBridge++
		}
	}
	if nonBridge < count {
		return nil, fmt.Errorf("need %d non-bridge links, graph has %d", count, nonBridge)
	}
	rng := rand.New(rand.NewSource(seed + 9000))
	picked := map[graph.EdgeKey]bool{}
	out := make([]graph.EdgeKey, 0, count)
	for len(out) < count {
		u := graph.NodeID(rng.Intn(g.N()))
		es := g.Neighbors(u)
		if len(es) == 0 {
			continue
		}
		e := es[rng.Intn(len(es))]
		key := graph.EdgeKey{U: u, V: e.To}.Norm()
		if bridges[e.EID] || picked[key] {
			continue
		}
		picked[key] = true
		out = append(out, key)
	}
	return out, nil
}

// deadMask marks one link for graph.WithoutEdges.
func deadMask(g *graph.Graph, link graph.EdgeKey) []bool {
	dead := make([]bool, g.M())
	dead[g.EdgeID(link.U, link.V)] = true
	return dead
}

// runTrial runs one failure on a clone of the converged instance:
// FailLink, PruneStale and a triggered run, then refresh rounds until
// stable. The clone's vicinities must then equal want.
func runTrial(rep *report, base *pathvector.Protocol, link graph.EdgeKey, want *vicinity.Table, name string, traced bool) (trialOut, error) {
	req := ""
	if traced {
		req = name
	}
	var out trialOut
	var eng sim.Engine
	var p *pathvector.Protocol
	var err error
	root := rep.tr.begin("trial", req, 0)
	out.clone = rep.tr.call("pathvector.clone", req, root.id, func() { p, err = base.Clone(&eng) })
	if err != nil {
		return out, err
	}
	quiesced := false
	trig := rep.tr.begin("pathvector.triggered", req, root.id)
	if err = p.FailLink(link.U, link.V); err == nil {
		p.PruneStale()
		rep.tr.call("sim.run", req, trig.id, func() { _, quiesced = eng.Run(0) })
	}
	out.triggered = trig.end()
	if err != nil {
		return out, err
	}
	if !quiesced {
		return out, fmt.Errorf("triggered re-convergence did not quiesce")
	}
	afterTriggered := p.Messages
	out.refresh = rep.tr.call("pathvector.refresh", req, root.id, func() { out.rounds, err = refreshUntilStable(p) })
	root.end()
	if err != nil {
		return out, err
	}
	out.steps = eng.Steps()
	out.messages = p.Messages
	out.refreshMsgs = p.Messages - afterTriggered
	checkVicinities(rep, p, want, name)
	return out, nil
}

// refreshUntilStable is RefreshUntilStable with its panics (a round that
// does not quiesce, no fixpoint within the cap) returned as errors.
func refreshUntilStable(p *pathvector.Protocol) (rounds int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("refresh: %v", r)
		}
	}()
	return p.RefreshUntilStable(refreshRounds), nil
}

// checkVicinities checks, node by node, that p's converged vicinities equal
// the static computation want: same members at the same distances.
func checkVicinities(rep *report, p *pathvector.Protocol, want *vicinity.Table, label string) {
	for _, node := range want.Sources() {
		got := p.VicinityMembers(node)
		ws := want.Of(node)
		ok := len(got) == ws.Size()
		for _, m := range got {
			e, in := ws.Find(m)
			if !ok || !in || (m != node && p.BestDist(node, m) != e.Dist) {
				ok = false
				break
			}
		}
		rep.check(ok, "%s: node %d vicinity differs from vicinity.Build", label, node)
	}
}
