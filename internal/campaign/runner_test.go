package campaign

import (
	"context"
	"testing"

	"wsinterop/internal/framework"
	"wsinterop/internal/typesys"
	"wsinterop/internal/wsi"
)

// limitedConfig returns a small, fast campaign configuration.
func limitedConfig(limit int) Config {
	return Config{Limit: limit, Workers: 4}
}

func TestScaledCampaignInvariants(t *testing.T) {
	res, err := NewRunner(limitedConfig(150)).Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.TotalServices != 3*150 {
		t.Errorf("total services = %d, want 450", res.TotalServices)
	}
	if res.TotalTests != res.TotalPublished*11 {
		t.Errorf("tests (%d) != published (%d) × clients (11)", res.TotalTests, res.TotalPublished)
	}
	for name, s := range res.Servers {
		if s.Deployed > s.Created {
			t.Errorf("%s: deployed %d > created %d", name, s.Deployed, s.Created)
		}
		if s.Tests != s.Deployed*11 {
			t.Errorf("%s: tests %d != deployed %d × 11", name, s.Tests, s.Deployed)
		}
		if s.GenErrors > s.Tests || s.GenWarnings > s.Tests {
			t.Errorf("%s: generation counts exceed tests", name)
		}
		if s.CompileErrors+s.CompileWarnings > 2*s.Tests {
			t.Errorf("%s: compile counts implausible", name)
		}
		if s.DescriptionErrors != 0 {
			t.Errorf("%s: description errors must be zero by construction", name)
		}
	}
	// Matrix totals must agree with server summaries.
	for _, server := range res.ServerOrder {
		genE, compE := 0, 0
		for _, client := range res.ClientOrder {
			cell := res.Matrix[client][server]
			genE += cell.GenErrors
			compE += cell.CompileErrors
		}
		if genE != res.Servers[server].GenErrors {
			t.Errorf("%s: matrix gen errors %d != summary %d", server, genE, res.Servers[server].GenErrors)
		}
		if compE != res.Servers[server].CompileErrors {
			t.Errorf("%s: matrix compile errors %d != summary %d", server, compE, res.Servers[server].CompileErrors)
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a, err := NewRunner(limitedConfig(200)).Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := NewRunner(Config{Limit: 200, Workers: 1}).Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if a.TotalTests != b.TotalTests || a.InteropErrors != b.InteropErrors ||
		a.SameFrameworkErrors != b.SameFrameworkErrors {
		t.Errorf("parallel vs sequential runs disagree: %+v vs %+v", a, b)
	}
	for _, client := range a.ClientOrder {
		for _, server := range a.ServerOrder {
			if *a.Matrix[client][server] != *b.Matrix[client][server] {
				t.Errorf("cell %s × %s differs across worker counts", client, server)
			}
		}
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewRunner(limitedConfig(500)).Run(ctx); err == nil {
		t.Error("cancelled context should abort the run")
	}
}

func TestSubsetOfFrameworks(t *testing.T) {
	cfg := Config{
		Servers: []framework.ServerFramework{framework.NewMetroServer()},
		Clients: []framework.ClientFramework{framework.NewAxis1Client()},
		Limit:   100,
	}
	res, err := NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.ServerOrder) != 1 || len(res.ClientOrder) != 1 {
		t.Fatalf("orders = %v / %v", res.ServerOrder, res.ClientOrder)
	}
	if res.TotalTests != res.TotalPublished {
		t.Errorf("one client: tests %d != published %d", res.TotalTests, res.TotalPublished)
	}
	cell := res.Matrix["Apache Axis1"]["Metro"]
	if cell.CompileWarnings != res.TotalPublished {
		t.Errorf("Axis1 should warn on every compile: %d of %d", cell.CompileWarnings, res.TotalPublished)
	}
}

func TestPublishStep(t *testing.T) {
	r := NewRunner(limitedConfig(0))
	published, created, err := r.Publish(context.Background(), framework.NewJBossWSServer())
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if created != typesys.JavaTotal {
		t.Errorf("created = %d, want %d", created, typesys.JavaTotal)
	}
	if len(published) != 2248 {
		t.Errorf("published = %d, want 2248", len(published))
	}
	flagged, compliant := 0, 0
	for i := range published {
		if published[i].Flagged {
			flagged++
		}
		if published[i].Compliant {
			compliant++
		}
		if len(published[i].Doc) == 0 {
			t.Fatalf("service %s has an empty document", published[i].Class)
		}
	}
	if flagged != 4 {
		t.Errorf("flagged = %d, want 4", flagged)
	}
	// Two of the four flagged are WS-I compliant (the zero-operation
	// documents) — the paper's central §IV.A observation.
	if compliant != 2248-2 {
		t.Errorf("compliant = %d, want %d", compliant, 2248-2)
	}
}

func TestOfficialCheckerMissesZeroOperations(t *testing.T) {
	cfg := limitedConfig(0)
	cfg.Checker = wsi.NewChecker(wsi.WithoutExtended())
	r := NewRunner(cfg)
	published, _, err := r.Publish(context.Background(), framework.NewJBossWSServer())
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	flagged := 0
	for i := range published {
		if published[i].Flagged {
			flagged++
		}
	}
	// With the official tool only the two genuine WS-I failures are
	// flagged; the unusable zero-operation WSDLs slip through.
	if flagged != 2 {
		t.Errorf("official checker flagged %d, want 2", flagged)
	}
}

func TestRunTestStepSemantics(t *testing.T) {
	r := NewRunner(limitedConfig(0))
	published, _, err := r.Publish(context.Background(), framework.NewMetroServer())
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	var w3c *PublishedService
	for i := range published {
		if published[i].Class == typesys.JavaW3CEndpointReference {
			w3c = &published[i]
		}
	}
	if w3c == nil {
		t.Fatal("W3CEndpointReference not published")
	}
	// A failing generation must stop the pipeline for clean-failing
	// clients...
	res := RunTest(framework.NewMetroClient(), *w3c)
	if !res.Gen.Error || res.CompileRan {
		t.Errorf("Metro client: %+v", res)
	}
	// ...but silent-artifact tools still reach compilation.
	res = RunTest(framework.NewAxis1Client(), *w3c)
	if !res.Gen.Error || !res.CompileRan {
		t.Errorf("Axis1 client: %+v", res)
	}
	if !res.ErrorAnywhere() {
		t.Error("ErrorAnywhere should be true")
	}
}

func TestStepString(t *testing.T) {
	for _, s := range []Step{StepDescription, StepGeneration, StepCompilation} {
		if s.String() == "" || s.String()[0] == 'S' {
			t.Errorf("step %d has no friendly name: %q", s, s.String())
		}
	}
}

func TestProgressCallback(t *testing.T) {
	var stages []string
	var last, lastTotal int
	cfg := limitedConfig(100)
	cfg.Workers = 1
	cfg.Progress = func(stage string, done, total int) {
		if len(stages) == 0 || stages[len(stages)-1] != stage {
			if len(stages) > 0 && last != lastTotal {
				t.Fatalf("stage %s ended at %d of %d", stages[len(stages)-1], last, lastTotal)
			}
			stages = append(stages, stage)
			last = 0
		}
		// Delivery is asynchronous and coalescing: consecutive
		// completions may arrive as one callback, so done can jump by
		// more than one — but never backward or past the total.
		if done <= last || done > total {
			t.Fatalf("non-monotonic progress: stage %s done %d after %d (total %d)", stage, done, last, total)
		}
		last, lastTotal = done, total
	}
	if _, err := NewRunner(cfg).Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(stages) != 3 {
		t.Errorf("stages = %v, want one per server", stages)
	}
	// The runner reports every created service as resolved —
	// tested or rejected — so each stage must end complete.
	if last != lastTotal || lastTotal != 100 {
		t.Errorf("final stage ended at %d of %d, want 100 of 100", last, lastTotal)
	}
}
