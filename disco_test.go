package disco

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func buildSmall(t *testing.T) *Network {
	t.Helper()
	nw, err := RandomGraph(300, 8, 42).Build(Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestBuildAndRoute(t *testing.T) {
	nw := buildSmall(t)
	if nw.N() != 300 {
		t.Fatalf("N=%d", nw.N())
	}
	if len(nw.Landmarks()) == 0 {
		t.Fatal("no landmarks")
	}
	r, err := nw.RouteFirst("node3", "node250")
	if err != nil {
		t.Fatal(err)
	}
	if r.Stretch < 1 || r.Stretch > 7+1e-9 {
		t.Fatalf("first-packet stretch %v out of [1,7]", r.Stretch)
	}
	if nw.NameOf(r.Nodes[0]) != "node3" || nw.NameOf(r.Nodes[len(r.Nodes)-1]) != "node250" {
		t.Fatal("route endpoints wrong")
	}
	later, err := nw.RouteLater("node3", "node250")
	if err != nil {
		t.Fatal(err)
	}
	if later.Stretch > 3+1e-9 {
		t.Fatalf("later-packet stretch %v > 3", later.Stretch)
	}
	if later.Length > r.Length+1e-9 {
		t.Fatalf("later route longer than first")
	}
}

func TestRouteManyPairsWithinBounds(t *testing.T) {
	nw := buildSmall(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		s := rng.Intn(300)
		d := rng.Intn(300)
		if s == d {
			continue
		}
		first, err := nw.RouteFirst(nw.NameOf(s), nw.NameOf(d))
		if err != nil {
			t.Fatal(err)
		}
		if nw.Fallbacks() == 0 && first.Stretch > 7+1e-9 {
			t.Fatalf("stretch %v > 7 without fallback", first.Stretch)
		}
	}
}

func TestUnknownNames(t *testing.T) {
	nw := buildSmall(t)
	if _, err := nw.RouteFirst("nope", "node1"); err == nil {
		t.Fatal("expected error for unknown source")
	}
	if _, err := nw.RouteFirst("node1", "nope"); err == nil {
		t.Fatal("expected error for unknown destination")
	}
	if _, ok := nw.Lookup("nope"); ok {
		t.Fatal("Lookup should miss")
	}
	if v, ok := nw.Lookup("node7"); !ok || v != 7 {
		t.Fatalf("Lookup(node7)=%d,%v", v, ok)
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	b := NewBuilder(3)
	b.AddLink(0, 1, 1).AddLink(1, 2, 1)
	b.SetName(0, "x").SetName(2, "x")
	if _, err := b.Build(Config{}); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestDisconnectedRejected(t *testing.T) {
	b := NewBuilder(4)
	b.AddLink(0, 1, 1).AddLink(2, 3, 1)
	if _, err := b.Build(Config{}); err == nil {
		t.Fatal("expected connectivity error")
	}
}

// TestBuilderErrors: every invalid Builder call surfaces as Build's error
// instead of a panic, one case per kind of mistake.
func TestBuilderErrors(t *testing.T) {
	path := func(n int) *Builder {
		b := NewBuilder(n)
		for i := 1; i < n; i++ {
			b.AddLink(i-1, i, 1)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		b    func() *Builder
	}{
		{"negative latency", func() *Builder { return path(3).AddLink(0, 2, -1) }},
		{"NaN latency", func() *Builder { return path(3).AddLink(0, 2, math.NaN()) }},
		{"infinite latency", func() *Builder { return path(3).AddLink(0, 2, math.Inf(1)) }},
		{"self-loop", func() *Builder { return path(3).AddLink(1, 1, 1) }},
		{"AddLink out of range", func() *Builder { return path(3).AddLink(0, 3, 1) }},
		{"AddLink negative node", func() *Builder { return path(3).AddLink(-1, 0, 1) }},
		{"SetName out of range", func() *Builder { return path(3).SetName(3, "x") }},
		{"negative node count", func() *Builder { return NewBuilder(-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := tc.b().Build(Config{})
			if err == nil || nw != nil {
				t.Fatalf("Build = %v, %v; want an error", nw, err)
			}
		})
	}
}

// TestBuilderKeepsFirstError: later mistakes do not overwrite the first.
func TestBuilderKeepsFirstError(t *testing.T) {
	_, err := NewBuilder(3).AddLink(0, 0, 1).SetName(9, "x").Build(Config{})
	if err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("err = %v, want the self-loop error", err)
	}
}

func TestStateBound(t *testing.T) {
	nw := buildSmall(t)
	n := float64(nw.N())
	bound := int(16 * math.Sqrt(n*math.Log2(n)))
	if nw.MaxState() > bound {
		t.Fatalf("max state %d exceeds O~(sqrt(n)) bound %d", nw.MaxState(), bound)
	}
	st := nw.StateOf(5)
	if st.Total != st.LandmarkRoutes+st.VicinityRoutes+st.LabelMappings+st.Resolution+st.GroupAddrs+st.OverlayLinks {
		t.Fatal("state breakdown inconsistent")
	}
	if st.VicinityRoutes == 0 || st.LandmarkRoutes == 0 {
		t.Fatal("state breakdown empty")
	}
}

func TestAddressOf(t *testing.T) {
	nw := buildSmall(t)
	a, err := nw.AddressOf("node9")
	if err != nil {
		t.Fatal(err)
	}
	isLM := false
	for _, lm := range nw.Landmarks() {
		if lm == a.Landmark {
			isLM = true
		}
	}
	if !isLM {
		t.Fatal("address landmark is not a landmark")
	}
	if a.RouteBits <= 0 {
		t.Fatal("empty encoded route")
	}
	if _, err := nw.AddressOf("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestCustomNamesAndLinks(t *testing.T) {
	b := NewBuilder(5)
	b.SetName(0, "alice").SetName(1, "bob").SetName(2, "carol")
	b.AddLink(0, 1, 1).AddLink(1, 2, 2).AddLink(2, 3, 1).AddLink(3, 4, 1).AddLink(4, 0, 3)
	nw, err := b.Build(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := nw.RouteLater("alice", "carol")
	if err != nil {
		t.Fatal(err)
	}
	if r.Length != 3 { // alice-bob-carol = 1+2
		t.Fatalf("route length %v want 3", r.Length)
	}
}

func TestGeometricAndInternetBuilders(t *testing.T) {
	for _, b := range []*Builder{
		GeometricGraph(200, 8, 1),
		InternetASLike(200, 1),
		InternetRouterLike(200, 1),
	} {
		nw, err := b.Build(Config{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if nw.N() != 200 {
			t.Fatal("wrong size")
		}
		if _, err := nw.RouteFirst("node0", "node199"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelfCertifyingNames(t *testing.T) {
	key := []byte("this-is-a-public-key")
	name := SelfCertifyingName(key)
	if !VerifyName(name, key) {
		t.Fatal("self-certifying name must verify")
	}
	if VerifyName(name, []byte("other-key")) {
		t.Fatal("wrong key must not verify")
	}
	// Route on a self-certifying name.
	b := RandomGraph(100, 8, 3)
	b.SetName(17, name)
	nw, err := b.Build(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := nw.RouteFirst("node4", name)
	if err != nil {
		t.Fatal(err)
	}
	if last := r.Nodes[len(r.Nodes)-1]; last != 17 {
		t.Fatalf("route ends at %d want 17", last)
	}
}

func TestEstimateErrorConfig(t *testing.T) {
	nw, err := RandomGraph(300, 8, 5).Build(Config{Seed: 5, EstimateError: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	// All routes must still deliver (fallback covers misses).
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		s, d := rng.Intn(300), rng.Intn(300)
		if s == d {
			continue
		}
		if _, err := nw.RouteFirst(nw.NameOf(s), nw.NameOf(d)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := RandomGraph(150, 8, 9).Build(Config{Seed: 9})
	b, _ := RandomGraph(150, 8, 9).Build(Config{Seed: 9})
	ra, _ := a.RouteFirst("node3", "node140")
	rb, _ := b.RouteFirst("node3", "node140")
	if len(ra.Nodes) != len(rb.Nodes) || ra.Length != rb.Length {
		t.Fatal("same seed must give identical routes")
	}
	for i := range ra.Nodes {
		if ra.Nodes[i] != rb.Nodes[i] {
			t.Fatal("route mismatch")
		}
	}
}
