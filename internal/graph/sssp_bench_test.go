package graph_test

import (
	"math/rand"
	"sync"
	"testing"

	"disco/internal/graph"
	"disco/internal/landmark"
	"disco/internal/names"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// kernelN is the size of the router-level stand-in the stretch sweeps run
// on, where the SSSP kernel is the stretch denominator.
const kernelN = 8192

type kernelCase struct {
	name string
	g    *graph.Graph
	run  func(s *graph.SSSP, src graph.NodeID)
}

var (
	kernelOnce  sync.Once
	kernelCases []kernelCase
)

// ssspCases returns one case per Run variant on n=8192 maps: on the
// router-level stand-in a full Run, RunK at the evaluation's vicinity
// size, RunRadius and the landmark forest (RunMulti over the landmark
// set); and a full Run on the geometric map, whose distances are all
// distinct.
func ssspCases() []kernelCase {
	kernelOnce.Do(func() {
		router := topology.RouterLike(rand.New(rand.NewSource(1)), kernelN)
		geo := topology.Geometric(rand.New(rand.NewSource(1)), kernelN, 8)
		lms := landmark.Select(names.NewGenerator(1).Names(kernelN), kernelN)
		k := vicinity.DefaultK(kernelN)
		kernelCases = []kernelCase{
			{"Run/routerlike", router, func(s *graph.SSSP, src graph.NodeID) { s.Run(src) }},
			{"RunK/routerlike", router, func(s *graph.SSSP, src graph.NodeID) { s.RunK(src, k) }},
			{"RunRadius/routerlike", router, func(s *graph.SSSP, src graph.NodeID) { s.RunRadius(src, 4) }},
			{"RunMulti/routerlike", router, func(s *graph.SSSP, _ graph.NodeID) { s.RunMulti(lms) }},
			{"Run/geometric", geo, func(s *graph.SSSP, src graph.NodeID) { s.Run(src) }},
		}
	})
	return kernelCases
}

// kernelSource spreads successive runs over the map.
func kernelSource(i int) graph.NodeID { return graph.NodeID(i * 7919 % kernelN) }

// BenchmarkSSSP times one Dijkstra run per op for each of ssspCases, on a
// scratch sized by one run before timing.
func BenchmarkSSSP(b *testing.B) {
	for _, c := range ssspCases() {
		b.Run(c.name, func(b *testing.B) {
			s := graph.NewSSSP(c.g)
			c.run(s, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.run(s, kernelSource(i))
			}
		})
	}
}

// TestSSSPWarmRunsDoNotAllocate pins the kernel's steady state: once a
// scratch has run from a set of sources, running from them again
// allocates nothing, in every Run variant.
func TestSSSPWarmRunsDoNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds n=8192 maps")
	}
	const runs = 16
	for _, c := range ssspCases() {
		s := graph.NewSSSP(c.g)
		for i := 0; i < runs; i++ {
			c.run(s, kernelSource(i))
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			c.run(s, kernelSource(i%runs))
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per warm run, want 0", c.name, allocs)
		}
	}
}
