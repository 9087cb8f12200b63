package campaign

import (
	"bytes"
	"context"
	"testing"

	"wsinterop/internal/framework"
	"wsinterop/internal/shape"
	"wsinterop/internal/wsdl"
)

// These tests enforce the structural-shape memo contract (DESIGN.md
// §6.6) at the level of individual layers: published bytes, worker
// stability, template substitution, and the wire-level extensions. The
// whole-campaign Result equivalence against the reference path
// (Config.Reference) is the matrix in equivalence_test.go.

// TestDedupEquivalenceScaled runs the optimized and the reference path
// at different worker counts, so scheduling differences are covered
// too, and checks the memo layer's own statistics on each side.
func TestDedupEquivalenceScaled(t *testing.T) {
	a, err := NewRunner(Config{Limit: 200, Workers: 4, KeepFailures: true}).Run(context.Background())
	if err != nil {
		t.Fatalf("optimized run: %v", err)
	}
	b, err := NewRunner(Config{Limit: 200, Workers: 2, KeepFailures: true, Reference: true}).Run(context.Background())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	compareResults(t, a, b)
	if !a.Dedup.Enabled {
		t.Error("optimized run should report Dedup.Enabled")
	}
	if b.Dedup.Enabled || *b.Dedup != (DedupStats{}) {
		t.Errorf("reference run should report zero stats, got %+v", *b.Dedup)
	}
	if a.Dedup.Shapes == 0 || a.Dedup.PublishMemoized == 0 || a.Dedup.TestMemoized == 0 {
		t.Errorf("memo layer did not engage: %+v", *a.Dedup)
	}
}

// TestDedupPublishBytes proves the byte-level half of the contract at
// full catalog scale: every published document, flag, and compliance
// verdict from the memoized path is identical to the reference path's
// per-class publish.
func TestDedupPublishBytes(t *testing.T) {
	limit := 0
	if testing.Short() {
		limit = 500
	}
	ctx := context.Background()
	dedup := NewRunner(Config{Limit: limit, Workers: 4})
	direct := NewRunner(Config{Limit: limit, Workers: 4, Reference: true})
	for i, server := range dedup.servers {
		a, createdA, err := dedup.Publish(ctx, server)
		if err != nil {
			t.Fatalf("dedup publish on %s: %v", server.Name(), err)
		}
		b, createdB, err := direct.Publish(ctx, direct.servers[i])
		if err != nil {
			t.Fatalf("direct publish on %s: %v", server.Name(), err)
		}
		if createdA != createdB || len(a) != len(b) {
			t.Fatalf("%s: created %d/%d published %d/%d", server.Name(), createdA, createdB, len(a), len(b))
		}
		for j := range a {
			if a[j].Class != b[j].Class {
				t.Fatalf("%s service %d: class %q != %q", server.Name(), j, a[j].Class, b[j].Class)
			}
			if !bytes.Equal(a[j].Doc, b[j].Doc) {
				t.Errorf("%s %s: memoized document differs from direct marshal", server.Name(), a[j].Class)
			}
			if a[j].Flagged != b[j].Flagged || a[j].Compliant != b[j].Compliant {
				t.Errorf("%s %s: flagged/compliant %v/%v != %v/%v", server.Name(), a[j].Class,
					a[j].Flagged, a[j].Compliant, b[j].Flagged, b[j].Compliant)
			}
		}
	}
}

// TestDedupWorkerStability asserts the memoized Result — including the
// shape census — is independent of worker count and therefore of
// scheduling and map iteration order.
func TestDedupWorkerStability(t *testing.T) {
	cfgs := []Config{
		{Limit: 200, Workers: 1, KeepFailures: true},
		{Limit: 200, Workers: 8, KeepFailures: true},
	}
	results := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := NewRunner(cfg).Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", cfg.Workers, err)
		}
		results[i] = res
	}
	compareResults(t, results[0], results[1])
	if results[0].Dedup.Shapes != results[1].Dedup.Shapes {
		t.Errorf("shape census depends on workers: %d vs %d",
			results[0].Dedup.Shapes, results[1].Dedup.Shapes)
	}
}

// TestShapeTemplateSubstitution is the property test behind the memo:
// two definitions with equal fingerprints must produce byte-identical
// WSDL documents after name substitution. For every shape group in the
// corpus slice, a template split from the sentinel publish must
// re-render every member's direct per-class marshal exactly.
func TestShapeTemplateSubstitution(t *testing.T) {
	r := NewRunner(Config{})
	for _, server := range r.servers {
		defs, err := r.defsFor(server)
		if err != nil {
			t.Fatal(err)
		}
		if len(defs) > 400 {
			defs = defs[:400]
		}
		groups := make(map[shape.Fingerprint][]int)
		for i, def := range defs {
			if shape.Memoizable(def) {
				fp := shape.Of(def)
				groups[fp] = append(groups[fp], i)
			}
		}
		shapes, rejected := 0, 0
		for _, members := range groups {
			sdef, svars := shape.Sentinel(defs[members[0]])
			sdoc, err := server.Publish(sdef)
			if err != nil {
				// NotDeployable is structural: every member must agree.
				rejected++
				for _, i := range members {
					if _, err := server.Publish(defs[i]); err == nil {
						t.Errorf("%s: sentinel rejected but %s deploys", server.Name(), defs[i].Parameter.Name)
					}
				}
				continue
			}
			tmpl, err := wsdl.MarshalTemplate(sdoc, svars)
			if err != nil {
				t.Fatalf("%s: split template: %v", server.Name(), err)
			}
			shapes++
			for _, i := range members {
				doc, err := server.Publish(defs[i])
				if err != nil {
					t.Errorf("%s: sentinel deploys but %s rejected", server.Name(), defs[i].Parameter.Name)
					continue
				}
				want, err := wsdl.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tmpl.Render(shape.Vars(defs[i]))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s %s: rendered document differs from direct marshal",
						server.Name(), defs[i].Parameter.Name)
				}
			}
		}
		if shapes == 0 && rejected == 0 {
			t.Errorf("%s: no shape groups exercised", server.Name())
		}
	}
}

// TestDedupCommunicationEquivalence asserts the memo layer is
// invisible to the communication extension, whose endpoint derivation
// is name-dependent (per-class paths must not collide just because
// classes share a shape) — including on a runner whose memo table a
// preceding Run filled, as `interop -report all` does.
func TestDedupCommunicationEquivalence(t *testing.T) {
	run := func(r *Runner) *CommResult {
		t.Helper()
		res, err := r.RunCommunication(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(NewRunner(Config{Limit: 120, Workers: 4, Reference: true}))
	afterRun := NewRunner(Config{Limit: 120, Workers: 4})
	if _, err := afterRun.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for label, got := range map[string]*CommResult{
		"optimized":           run(NewRunner(Config{Limit: 120, Workers: 4})),
		"optimized after Run": run(afterRun),
	} {
		for _, server := range ref.ServerOrder {
			if *got.Servers[server] != *ref.Servers[server] {
				t.Errorf("%s comm %s: %+v != reference %+v", label, server, *got.Servers[server], *ref.Servers[server])
			}
		}
		for _, client := range ref.ClientOrder {
			if *got.Clients[client] != *ref.Clients[client] {
				t.Errorf("%s comm client %s: %+v != reference %+v", label, client, *got.Clients[client], *ref.Clients[client])
			}
		}
	}
}

// TestPublishAfterRunNoFallbacks: Publish on a runner that already ran
// the campaign must serve every shape from the memo the run built —
// including single-member (solo) shapes, which build no template — and
// return exactly what a fresh runner's Publish returns.
func TestPublishAfterRunNoFallbacks(t *testing.T) {
	ctx := context.Background()
	opts := []Option{WithLimit(300), WithServers(framework.NewMetroServer())}
	r := New(opts...)
	if _, err := r.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	fallbacks := r.Obs().Counter("campaign.publish.fallbacks")
	before := fallbacks.Value()
	got, _, err := r.Publish(ctx, r.servers[0])
	if err != nil {
		t.Fatalf("publish after run: %v", err)
	}
	if d := fallbacks.Value() - before; d != 0 {
		t.Errorf("publish after run added %d fallbacks, want 0", d)
	}
	fresh := New(opts...)
	want, _, err := fresh.Publish(ctx, fresh.servers[0])
	if err != nil {
		t.Fatalf("fresh publish: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("published %d services after run, %d fresh", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Class != w.Class || !bytes.Equal(g.Doc, w.Doc) || g.Flagged != w.Flagged ||
			g.Compliant != w.Compliant || g.Profiles != w.Profiles {
			t.Errorf("service %d (%s) differs from a fresh publish", i, w.Class)
		}
	}
}
