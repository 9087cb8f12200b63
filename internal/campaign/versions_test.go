package campaign

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"wsinterop/internal/framework"
	"wsinterop/internal/obs"
	"wsinterop/internal/soap"
)

func runVersions(t *testing.T, cfg Config) *VersionResult {
	t.Helper()
	res, err := NewRunner(cfg).RunVersions(context.Background())
	if err != nil {
		t.Fatalf("versions run: %v", err)
	}
	return res
}

// versionBytes serializes a VersionResult for byte comparison.
func versionBytes(t *testing.T, res *VersionResult) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal version result: %v", err)
	}
	return data
}

// TestVersionsScaled checks the matrix semantics on the default
// roster, whose three servers all declare StrictReject: pure 1.1
// accepts everywhere invocable, 1.2 and hybrid requests are refused
// with typed errors by every client, and the hybrid-fault wire is
// never reported as success — the coerce-strictness clients swallow
// it as silent-mishandle, everyone else surfaces the fault.
func TestVersionsScaled(t *testing.T) {
	res := runVersions(t, limitedConfig(robustLimit(80)))
	if len(res.ServerOrder) != 3 {
		t.Fatalf("servers = %v", res.ServerOrder)
	}
	if want := []string{"v11", "v12", "hybrid-headers", "hybrid-fault"}; !reflect.DeepEqual(res.Scenarios, want) {
		t.Fatalf("scenarios = %v, want %v", res.Scenarios, want)
	}

	totals := res.Totals()
	if totals.Cells == 0 {
		t.Fatal("no cells executed")
	}
	if sum := totals.Skipped + totals.Accepted + totals.Rejected + totals.Mishandled; sum != totals.Cells {
		t.Errorf("outcome buckets (%d) do not partition cells (%d)", sum, totals.Cells)
	}

	st := res.ScenarioTotals()
	exchanged := func(c *VersionCounts) int { return c.Cells - c.Skipped }

	// Pure 1.1 is the baseline: every exchanged cell accepts.
	if c := st["v11"]; c.Accepted != exchanged(c) || c.Rejected != 0 || c.Mishandled != 0 {
		t.Errorf("v11 column = %+v, want all %d exchanged cells accepted", c, exchanged(c))
	}
	// Against strict hosts, a 1.2 or hybrid request draws a
	// VersionMismatch fault that every client strictness surfaces.
	for _, name := range []string{"v12", "hybrid-headers"} {
		if c := st[name]; c.Rejected != exchanged(c) || c.Accepted != 0 || c.Mishandled != 0 {
			t.Errorf("%s column = %+v, want all %d exchanged cells typed-rejected", name, c, exchanged(c))
		}
	}
	// The headline acceptance property: a wire-relayed fault in the
	// wrong version vocabulary is never reported as success.
	hf := st["hybrid-fault"]
	if hf.Accepted != 0 {
		t.Errorf("hybrid-fault accepted cells = %d, want 0; column = %+v", hf.Accepted, hf)
	}
	if hf.Rejected == 0 || hf.Mishandled == 0 {
		t.Errorf("hybrid-fault column = %+v, want both typed rejects and mishandles on the mixed-strictness roster", hf)
	}

	// Mishandling is exactly the SilentCoerce clients' hybrid-fault
	// cells: a coerce client parses the 1.2 fault as data, everyone
	// else rejects it, and no other scenario mishandles on this
	// all-strict server roster.
	ns := len(res.Scenarios)
	for _, name := range res.ClientOrder {
		c := res.Clients[name]
		perScenario := exchanged(c) / ns
		want := 0
		if framework.VersionStrictness(name) == soap.SilentCoerce {
			want = perScenario
		}
		if c.Mishandled != want {
			t.Errorf("client %s: mishandled = %d, want %d (strictness %s)",
				name, c.Mishandled, want, framework.VersionStrictness(name))
		}
	}

	// The per-client breakdown re-sums to the matrix totals.
	var clientCells int
	for _, name := range res.ClientOrder {
		clientCells += res.Clients[name].Cells
	}
	if clientCells != totals.Cells {
		t.Errorf("client cells (%d) != matrix cells (%d)", clientCells, totals.Cells)
	}
}

// TestVersionMatrixEquivalence is the determinism acceptance check:
// worker count, scheduling, and the reference path must never change a
// cell of the version matrix.
func TestVersionMatrixEquivalence(t *testing.T) {
	limit := 200
	if testing.Short() {
		limit = 60
	}
	run := func(workers int, reference bool) *VersionResult {
		res, err := NewRunner(Config{Limit: limit, Workers: workers, Reference: reference}).
			RunVersions(context.Background())
		if err != nil {
			t.Fatalf("run (workers=%d reference=%v): %v", workers, reference, err)
		}
		return res
	}
	base := run(4, false)
	baseBytes := versionBytes(t, base)
	for _, v := range []struct {
		label     string
		workers   int
		reference bool
	}{
		{"serial", 1, false},
		{"parallel", 8, false},
		{"reference", 4, true},
	} {
		if got := versionBytes(t, run(v.workers, v.reference)); string(got) != string(baseBytes) {
			t.Errorf("matrix differs under %s execution", v.label)
		}
	}
}

// TestVersionsObservability: the serial fold lands the matrix in the
// campaign.versions.* counters exactly.
func TestVersionsObservability(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := NewRunner(Config{Limit: 2, Workers: 2, Obs: reg}).RunVersions(context.Background())
	if err != nil {
		t.Fatalf("versions: %v", err)
	}
	totals := res.Totals()
	for name, want := range map[string]int{
		"campaign.versions.skipped":          totals.Skipped,
		"campaign.versions.accepted":         totals.Accepted,
		"campaign.versions.typed_reject":     totals.Rejected,
		"campaign.versions.silent_mishandle": totals.Mishandled,
	} {
		if got := reg.Counter(name).Value(); got != int64(want) {
			t.Errorf("%s counter = %d, matrix says %d", name, got, want)
		}
	}
}

func TestVersionsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewRunner(limitedConfig(300)).RunVersions(ctx); err == nil {
		t.Error("cancelled context should abort")
	}
}

// TestVersionOutcomeRoundTrip: the String form is the journal
// encoding, so it must parse back exactly.
func TestVersionOutcomeRoundTrip(t *testing.T) {
	for _, o := range versionOutcomes {
		s := o.String()
		if s == "" || strings.HasPrefix(s, "Version") {
			t.Errorf("outcome %d has no friendly name: %q", o, s)
		}
		back, err := parseOutcome(versionOutcomes, s)
		if err != nil || back != o {
			t.Errorf("parse(%q) = %v, %v; want %v", s, back, err, o)
		}
	}
	if _, err := parseOutcome(versionOutcomes, "bogus"); err == nil {
		t.Error("bogus outcome parsed")
	}
}
