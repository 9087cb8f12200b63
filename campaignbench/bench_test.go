package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"io"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"wsinterop/internal/artifact"
	"wsinterop/internal/campaign"
	"wsinterop/internal/framework"
)

// The tracing wrappers must be invisible to the campaign: a wrapped
// run returns the same Result as an unwrapped one, and the wrappers
// see every framework call.
func TestWrappedCampaignMatchesUnwrapped(t *testing.T) {
	ctx := context.Background()
	plain, err := campaign.New(campaign.WithLimit(40), campaign.WithWorkers(procs)).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	opts := append([]campaign.Option{campaign.WithLimit(40), campaign.WithWorkers(procs)}, tr.wrapped()...)
	wrapped, err := campaign.New(opts...).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(plain, wrapped); err != nil {
		t.Fatalf("wrapped campaign: %v", err)
	}
	stats := tr.endPass()
	for _, k := range []spanKind{spanPublish, spanGenerate, spanCompile} {
		if stats[k].calls == 0 {
			t.Errorf("no %s spans recorded", spanNames[k])
		}
	}
}

// pb builds protobuf messages for synthetic profiles.
type pb struct{ bytes.Buffer }

func (m *pb) key(field, wire int) { m.varint(uint64(field<<3 | wire)) }

func (m *pb) varint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	m.Write(b[:binary.PutUvarint(b[:], v)])
}

func (m *pb) uint(field int, v uint64) { m.key(field, 0); m.varint(v) }

func (m *pb) bytes(field int, b []byte) { m.key(field, 2); m.varint(uint64(len(b))); m.Write(b) }

func (m *pb) packed(field int, vs ...uint64) {
	var p pb
	for _, v := range vs {
		p.varint(v)
	}
	m.bytes(field, p.Bytes())
}

// syntheticProfile encodes a gzipped CPU profile. Each stack lists
// (function, file) pairs leaf first; a stack entry holding two pairs
// is one location with an inlined call, as the runtime writes it.
func syntheticProfile(t *testing.T, stacks [][][2]frame, cpu []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	intern := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof pb
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pb
		m.uint(1, intern(vt[0]))
		m.uint(2, intern(vt[1]))
		prof.bytes(1, m.Bytes())
	}
	var nextID uint64
	for i, stack := range stacks {
		var locs []uint64
		for _, loc := range stack {
			nextID++
			locID := nextID
			var l pb
			l.uint(1, locID)
			for _, f := range loc {
				if f.function == "" {
					continue
				}
				nextID++
				var fn pb
				fn.uint(1, nextID)
				fn.uint(2, intern(f.function))
				fn.uint(4, intern(f.file))
				prof.bytes(5, fn.Bytes())
				var line pb
				line.uint(1, nextID)
				l.bytes(4, line.Bytes())
			}
			prof.bytes(4, l.Bytes())
			locs = append(locs, locID)
		}
		var s pb
		if i%2 == 0 {
			s.packed(1, locs...)
		} else {
			for _, id := range locs {
				s.uint(1, id)
			}
		}
		s.packed(2, 1, uint64(cpu[i]))
		prof.bytes(2, s.Bytes())
	}
	for _, str := range strs {
		prof.bytes(6, []byte(str))
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(prof.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestAttributionCreditsSyntheticProfile(t *testing.T) {
	fr := func(fn, file string) [2]frame { return [2]frame{{function: fn, file: file}} }
	stacks := [][][2]frame{
		// Standard-library work is credited to the repository frame
		// that called it.
		{fr("encoding/xml.(*Encoder).Encode", "encoding/xml/marshal.go"),
			fr("wsinterop/internal/wsdl.Marshal", "internal/wsdl/marshal.go"),
			fr("wsinterop/internal/campaign.(*Runner).runServerPlanned", "internal/campaign/plan.go")},
		// internal/campaign is split by file.
		{fr("wsinterop/internal/campaign.(*Runner).buildPlan", "internal/campaign/plan.go")},
		{fr("wsinterop/internal/campaign.(*Runner).foldCodes", "internal/campaign/campaign.go")},
		{fr("wsinterop/internal/campaign.(*Runner).journalService", "internal/campaign/checkpoint.go"),
			fr("wsinterop/internal/campaign.(*Runner).Run", "internal/campaign/campaign.go")},
		// An inlined frame counts as the innermost frame.
		{{{function: "strings.IndexByte", file: "strings/strings.go"},
			{function: "wsinterop/internal/wsi.isNCName", file: "internal/wsi/names.go"}},
			fr("wsinterop/internal/campaign.(*Runner).checkDoc", "internal/campaign/campaign.go")},
		{fr("runtime.scanobject", "runtime/mgcmark.go"), fr("runtime.gcBgMarkWorker", "runtime/mgc.go")},
		{fr("runtime.findRunnable", "runtime/proc.go"), fr("runtime.schedule", "runtime/proc.go")},
		{fr("main.(*workload).runPass", "campaignbench/workloads.go")},
	}
	cpu := []int64{10e6, 20e6, 30e6, 40e6, 50e6, 60e6, 70e6, 80e6}
	samples, err := parseProfile(syntheticProfile(t, stacks, cpu))
	if err != nil {
		t.Fatal(err)
	}
	got := attribute(samples)
	want := map[string]time.Duration{
		"wsdl": 10 * time.Millisecond, "plan": 20 * time.Millisecond,
		"campaign.fold": 30 * time.Millisecond, "journal": 40 * time.Millisecond,
		"wsi": 50 * time.Millisecond, "runtime.gc": 60 * time.Millisecond,
		"unattributed": 70 * time.Millisecond, "bench": 80 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("credit = %v, want %v", got, want)
	}
}

//go:noinline
func burn(d time.Duration) (n uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			n += uint64(i) * n
		}
	}
	return n
}

// The decoder reads what runtime/pprof writes.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	credit := attribute(samples)
	var total time.Duration
	for _, d := range credit {
		total += d
	}
	if total == 0 || credit["bench"] < total/2 {
		t.Fatalf("credit = %v, want most of it on bench", credit)
	}
}

// tamperClient reports one extra compilation error per verification.
type tamperClient struct{ framework.ClientFramework }

func (c tamperClient) Verify(u *artifact.Unit) []artifact.Diagnostic {
	return append(c.ClientFramework.Verify(u), artifact.Diagnostic{Severity: artifact.SeverityError, Code: "TAMPERED"})
}

func tampered() campaign.Option {
	var clients []framework.ClientFramework
	for _, c := range framework.Clients() {
		clients = append(clients, tamperClient{c})
	}
	return campaign.WithClients(clients...)
}

// A pass whose Result does not match its oracle counts as a failed
// operation, and its checkpoint directory is removed all the same.
func TestTamperedPassCountsAsFailed(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"classic", "checkpoint"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.setup(nil); err != nil {
				t.Fatal(err)
			}
			tl := &tally{log: io.Discard}
			_, err = w.runPass(ctx, direct)
			tl.add(err)
			_, err = w.runPass(ctx, direct, tampered())
			if err == nil || !strings.Contains(err.Error(), "compilation errors: measured") {
				t.Fatalf("tampered pass error = %v, want the paper oracle's rejection", err)
			}
			tl.add(err)
			if out := tl.report(nil); out.Attempted != 2 || out.Failed != 1 || out.Correct {
				t.Fatalf("tally = %+v, want 2 attempted, 1 failed, not correct", out)
			}
			assertEmpty(t, w.workdir)
		})
	}
}

// A version matrix that differs from the literal-path reference fails.
func TestVersionsPassRejectsMismatchedReference(t *testing.T) {
	ctx := context.Background()
	w, err := newWorkload("versions", 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w.shards = 400 // a small slice keeps the test fast
	if w.expect, err = w.reference(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := w.runPass(ctx, direct); err != nil {
		t.Fatalf("untampered pass: %v", err)
	}
	w.expect = bytes.Replace(w.expect, []byte(`"Accepted":`), []byte(`"Accepted":1`), 1)
	if _, err := w.runPass(ctx, direct); err == nil {
		t.Fatal("pass against a tampered reference succeeded")
	}
}

// Every pass removes the temporary directories it made.
func TestPassRemovesTempDirs(t *testing.T) {
	w, err := newWorkload("checkpoint", 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	prof := &profiler{t: newTracer(), credit: make(map[string]time.Duration)}
	out, err := w.runPass(context.Background(), prof.phase)
	if err != nil {
		t.Fatal(err)
	}
	if out.journalBytes == 0 || out.resume == 0 || prof.journalWrite == 0 {
		t.Fatalf("checkpoint pass measured journal %d B, resume %v, journal CPU %v", out.journalBytes, out.resume, prof.journalWrite)
	}
	assertEmpty(t, w.workdir)
}

func assertEmpty(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind %s", e.Name())
	}
}

// The steal share is stolen ticks over ticks in use, and a reading of
// this machine's /proc/stat parses into non-decreasing counters.
func TestStealShare(t *testing.T) {
	a := ticks{busy: 1000, steal: 100}
	b := ticks{busy: 1400, steal: 200}
	if got := stealShare(a, b); got != 0.25 {
		t.Errorf("stealShare = %v, want 0.25", got)
	}
	if got := stealShare(a, a); got != 0 {
		t.Errorf("stealShare with no elapsed ticks = %v, want 0", got)
	}
	first, err := readTicks()
	if err != nil {
		t.Fatal(err)
	}
	second, err := readTicks()
	if err != nil {
		t.Fatal(err)
	}
	if first.busy <= 0 || first.steal < 0 || first.steal > first.busy ||
		second.busy < first.busy || second.steal < first.steal {
		t.Errorf("readTicks gave %+v then %+v", first, second)
	}
	if s := stealShare(first, second); s < 0 || s > 1 {
		t.Errorf("stealShare = %v, want a share in [0, 1]", s)
	}
}
