package mdbgp

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mdbgp/internal/partition"
)

// builtinEngines filters out engines registered by tests (test- prefix):
// the registry is process-global with no unregister, so suites pinning the
// built-in set must stay correct at any test order and -count.
func builtinEngines() []EngineInfo {
	var infos []EngineInfo
	for _, info := range Engines() {
		if !strings.HasPrefix(info.Name, "test-") {
			infos = append(infos, info)
		}
	}
	return infos
}

// engineTestGraph is a 4-community social graph big enough that every
// engine has real work to do but small enough to solve in milliseconds.
func engineTestGraph(t testing.TB) *Graph {
	t.Helper()
	g, _ := GenerateSocialGraph(SocialGraphConfig{
		N: 600, Communities: 4, AvgDegree: 10, InFraction: 0.85, Seed: 99,
	})
	return g
}

func TestEngineRegistry(t *testing.T) {
	want := []string{"blp", "fennel", "gd", "metis", "multilevel", "shp"}
	var got []string
	for _, info := range builtinEngines() {
		got = append(got, info.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("built-in engines = %v, want %v", got, want)
	}
	for _, info := range builtinEngines() {
		e, err := LookupEngine(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Info() != info {
			t.Fatalf("Engines() info %+v != LookupEngine info %+v", info, e.Info())
		}
		if info.Description == "" {
			t.Errorf("engine %q has no description", info.Name)
		}
		if !info.Deterministic {
			t.Errorf("built-in engine %q must be deterministic", info.Name)
		}
	}
	// "" resolves to the default engine.
	e, err := LookupEngine("")
	if err != nil {
		t.Fatal(err)
	}
	if e.Info().Name != DefaultEngine {
		t.Fatalf("empty name resolved to %q, want %q", e.Info().Name, DefaultEngine)
	}
	if _, err := LookupEngine("nope"); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("unknown engine error = %v", err)
	}
	if err := RegisterEngine(gdEngine{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// TestEngineCapabilityMatrix pins the documented capability matrix: a silent
// capability flip would change server-side validation and warm routing.
func TestEngineCapabilityMatrix(t *testing.T) {
	warm := map[string]bool{"gd": true, "multilevel": true}
	weighted := map[string]bool{"gd": true, "multilevel": true, "blp": true, "metis": true}
	for _, info := range builtinEngines() {
		if info.WarmStart != warm[info.Name] {
			t.Errorf("engine %q WarmStart = %t, want %t", info.Name, info.WarmStart, warm[info.Name])
		}
		if info.Weighted != weighted[info.Name] {
			t.Errorf("engine %q Weighted = %t, want %t", info.Name, info.Weighted, weighted[info.Name])
		}
	}
}

// TestEveryEngineSolves runs each registered engine end to end and checks
// the result is a valid k-way partition with sane quality: every engine must
// beat random assignment (locality ≈ 1/k) on a community-structured graph
// and respect its own balance semantics on vertex count.
func TestEveryEngineSolves(t *testing.T) {
	g := engineTestGraph(t)
	const k = 4
	for _, info := range builtinEngines() {
		t.Run(info.Name, func(t *testing.T) {
			res, err := Partition(g, Options{Engine: info.Name, K: k, Seed: 42, Iterations: 40})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Assignment.Validate(); err != nil {
				t.Fatal(err)
			}
			if res.Assignment.K != k {
				t.Fatalf("K = %d, want %d", res.Assignment.K, k)
			}
			if res.EdgeLocality < 0.35 {
				t.Errorf("locality %.3f barely beats random (1/k = 0.25)", res.EdgeLocality)
			}
			// Vertex-count balance: weighted engines promise ε (repair slack
			// included); the 1-D baselines still cannot be wildly lopsided.
			vertexImb := res.Imbalances[0]
			limit := 0.10
			if !info.Weighted {
				limit = 0.50
			}
			if vertexImb > limit {
				t.Errorf("vertex imbalance %.3f exceeds %.2f", vertexImb, limit)
			}
		})
	}
}

// TestEngineDeterminism re-solves with each engine at several Parallelism
// values and asserts bit-identical assignments — the invariant that lets the
// result cache exclude Parallelism from its keys for every engine, not just
// GD.
func TestEngineDeterminism(t *testing.T) {
	g := engineTestGraph(t)
	for _, info := range builtinEngines() {
		t.Run(info.Name, func(t *testing.T) {
			var golden []int32
			for _, p := range []int{1, 2, 8} {
				res, err := Partition(g, Options{Engine: info.Name, K: 3, Seed: 7, Iterations: 30, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				if golden == nil {
					golden = res.Assignment.Parts
					continue
				}
				for v := range golden {
					if golden[v] != res.Assignment.Parts[v] {
						t.Fatalf("p=%d diverged from p=1 at vertex %d", p, v)
					}
				}
			}
		})
	}
}

func TestUnknownEngineFailsPartition(t *testing.T) {
	g := engineTestGraph(t)
	if _, err := Partition(g, Options{Engine: "simulated-annealing", K: 2}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestWarmStartRejectedByColdOnlyEngines: a warm assignment handed to an
// engine without warm-start capability is an explicit error at the library
// level — silent degradation is the server's policy decision, not the
// library's.
func TestWarmStartRejectedByColdOnlyEngines(t *testing.T) {
	g := engineTestGraph(t)
	warm := make([]int32, g.N())
	for _, info := range builtinEngines() {
		_, err := Partition(g, Options{Engine: info.Name, K: 2, Seed: 1, Iterations: 20, WarmAssignment: warm})
		if info.WarmStart && err != nil {
			t.Errorf("engine %q rejected a warm start it claims to support: %v", info.Name, err)
		}
		if !info.WarmStart {
			if err == nil || !strings.Contains(err.Error(), "does not support warm starts") {
				t.Errorf("engine %q: warm start error = %v, want capability rejection", info.Name, err)
			}
		}
	}
}

// TestEngineEpsilonThreading: Epsilon reaches every engine's own balance
// knob (Fennel's cap slack, SHP's tolerance, METIS's UBFactor), so tight and
// loose requests produce different partitions.
func TestEngineEpsilonThreading(t *testing.T) {
	g := engineTestGraph(t)
	for _, name := range []string{"fennel", "metis"} {
		tight, err := Partition(g, Options{Engine: name, K: 4, Seed: 42, Epsilon: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		loose, err := Partition(g, Options{Engine: name, K: 4, Seed: 42, Epsilon: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(tight.Assignment.Parts, loose.Assignment.Parts) {
			t.Errorf("engine %q ignored Epsilon entirely", name)
		}
	}
}

// registerStripeOnce registers the test engine exactly once per process:
// the registry has no unregister, so re-registering under -count>1 would
// fail spuriously.
var registerStripeOnce sync.Once

// TestRegisterCustomEngine exercises the extension point end to end: a
// third-party engine registers, dispatches through Partition, and
// fingerprints distinctly from every built-in.
func TestRegisterCustomEngine(t *testing.T) {
	var regErr error
	registerStripeOnce.Do(func() { regErr = RegisterEngine(stripeEngine{}) })
	if regErr != nil {
		t.Fatal(regErr)
	}
	g := engineTestGraph(t)
	res, err := Partition(g, Options{Engine: "test-stripe", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Fatal(err)
	}
	fp := Options{Engine: "test-stripe", K: 3}.Fingerprint()
	for _, name := range []string{"gd", "multilevel", "fennel", "blp", "shp", "metis"} {
		if fp == (Options{Engine: name, K: 3}).Fingerprint() {
			t.Fatalf("custom engine fingerprint collides with %q", name)
		}
	}
}

// stripeEngine is the test-only custom engine: contiguous vertex stripes.
type stripeEngine struct{}

func (stripeEngine) Info() EngineInfo {
	return EngineInfo{Name: "test-stripe", Deterministic: true, Description: "contiguous stripes (test only)"}
}

func (stripeEngine) Solve(g *Graph, opts Options) (*Result, error) {
	ws, err := resolveWeights(g, opts)
	if err != nil {
		return nil, err
	}
	a := partition.NewAssignment(g.N(), opts.K)
	per := (g.N() + opts.K - 1) / opts.K
	if per == 0 {
		per = 1
	}
	for v := 0; v < g.N(); v++ {
		p := v / per
		if p >= opts.K {
			p = opts.K - 1
		}
		a.Parts[v] = int32(p)
	}
	return buildResult(g, ws, a), nil
}

// TestEnginesLeaveWeightsUntouched: a front end may hand every solve of a
// graph the same balance vectors through Options.Weights (the daemon keeps
// PageRank and neighbor-degree vectors per retained graph), so no engine —
// cold, warm, or with an injected hierarchy — may write to them.
func TestEnginesLeaveWeightsUntouched(t *testing.T) {
	g := engineTestGraph(t)
	ws, err := StandardWeights(g, WeightVertices, WeightEdges, WeightNeighborDegrees, WeightPageRank)
	if err != nil {
		t.Fatal(err)
	}
	bits := func() [][]uint64 {
		out := make([][]uint64, len(ws))
		for i, w := range ws {
			for _, x := range w {
				out[i] = append(out[i], math.Float64bits(x))
			}
		}
		return out
	}
	want := bits()
	check := func(what string) {
		t.Helper()
		if !reflect.DeepEqual(bits(), want) {
			t.Fatalf("%s wrote to Options.Weights", what)
		}
	}
	for _, info := range builtinEngines() {
		opts := Options{Engine: info.Name, K: 4, Seed: 42, Iterations: 40, Weights: ws}
		res, err := Partition(g, opts)
		if err != nil {
			t.Fatalf("%s cold: %v", info.Name, err)
		}
		check(info.Name + " cold")
		if info.WarmStart {
			opts.WarmAssignment = append([]int32(nil), res.Assignment.Parts...)
			if _, err := Partition(g, opts); err != nil {
				t.Fatalf("%s warm: %v", info.Name, err)
			}
			check(info.Name + " warm")
		}
	}
	for _, engine := range []string{"multilevel", "metis"} {
		opts := Options{Engine: engine, K: 4, Seed: 42, Iterations: 40, Weights: ws}
		ph, err := PrepareHierarchy(g, opts)
		if err != nil {
			t.Fatalf("%s hierarchy: %v", engine, err)
		}
		check(engine + " hierarchy build")
		opts.PrepHierarchy = ph
		if _, err := Partition(g, opts); err != nil {
			t.Fatalf("%s with hierarchy: %v", engine, err)
		}
		check(engine + " solve with an injected hierarchy")
	}
}
