package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupProbes is how many fresh processes time their set-up; setup_s
	// is the median. A probe takes 20–70 ms, mostly process start-up on
	// versions and faults, so a median of fewer probes is noisy.
	setupProbes = 51
	// warmup is run and checked but not timed: a process's first passes
	// run 40–60% slower.
	warmup = 1500 * time.Millisecond
	// minPasses is the fewest timed passes a run makes, however short
	// its window.
	minPasses = 3
)

// tally counts passes as attempted operations; a pass that errors or
// that its oracle rejects is a failed one.
type tally struct {
	attempted, failed int
	log               io.Writer
}

func (t *tally) add(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "campaignbench: pass %d failed: %v\n", t.attempted, err)
	}
	return err == nil
}

func (t *tally) report(metrics map[string]metric) *output {
	return &output{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// prepare readies the in-process workload: set-up, the literal-path
// reference where the workload has one, and the discarded warm-up
// passes.
func prepare(ctx context.Context, w *workload, tr *tracer, t *tally) (setupInfo, error) {
	info, err := w.setup(tr)
	if err != nil {
		return info, fmt.Errorf("setup: %w", err)
	}
	if !w.usesPlan() {
		if w.expect, err = w.childReference(ctx); err != nil {
			return info, fmt.Errorf("reference: %w", err)
		}
	}
	for start := time.Now(); time.Since(start) < warmup; {
		_, err := w.runPass(ctx, direct)
		if !t.add(err) {
			break
		}
	}
	return info, nil
}

// measure is the untraced benchmark: the end-to-end metrics. Times
// exclude the share of the interval the hypervisor stole from the
// machine (see stealShare).
func measure(ctx context.Context, w *workload, seconds int, log io.Writer) (*output, error) {
	before, err := readTicks()
	if err != nil {
		return nil, err
	}
	setups, err := w.probeSetup(ctx)
	if err != nil {
		return nil, err
	}
	after, err := readTicks()
	if err != nil {
		return nil, err
	}
	setupSteal := stealShare(before, after)
	t := &tally{log: log}
	if _, err := prepare(ctx, w, nil, t); err != nil {
		return nil, err
	}
	var rates, raw, steals, peaks []float64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		before, err := readTicks()
		if err != nil {
			return nil, err
		}
		out, err := w.runPass(ctx, direct)
		after, terr := readTicks()
		if terr != nil {
			return nil, terr
		}
		peak, rerr := peakRSSMB()
		if rerr != nil {
			return nil, rerr
		}
		if !t.add(err) {
			continue
		}
		steal := stealShare(before, after)
		rates = append(rates, float64(out.cells)/(out.wall.Seconds()*(1-steal)))
		raw = append(raw, float64(out.cells)/out.wall.Seconds())
		steals = append(steals, steal)
		peaks = append(peaks, peak)
	}
	fmt.Fprintf(log, "campaignbench: %s: %d timed passes; median steal %.1f%% (set-up %.1f%%); "+
		"median cells/s %.0f before the steal correction\n",
		w.name, len(rates), 100*median(steals), 100*setupSteal, median(raw))
	return t.report(map[string]metric{
		"setup_s":     {median(setups) * (1 - setupSteal), "s"},
		"cells_per_s": {median(rates), "1/s"},
		"peak_rss_mb": {median(peaks), "MB"},
	}), nil
}

// probeSetup starts setupProbes fresh processes in the setup role and
// times each from process start until it reports it is ready to run
// its first pass.
func (w *workload) probeSetup(ctx context.Context) ([]float64, error) {
	times := make([]float64, 0, setupProbes)
	for i := 0; i < setupProbes; i++ {
		d, err := w.probeOnce(ctx)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		times = append(times, d.Seconds())
	}
	return times, nil
}

func (w *workload) probeOnce(ctx context.Context) (time.Duration, error) {
	cmd, err := w.child(ctx, "setup")
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	elapsed := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("setup child printed %q: %v", line, rerr)
	}
	return elapsed, nil
}

// childReference computes the literal-path reference in a separate
// process, so the oracle shares no state with the timed path and its
// memory does not count toward this process's peak RSS.
func (w *workload) childReference(ctx context.Context) ([]byte, error) {
	cmd, err := w.child(ctx, "reference")
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	if out.Len() == 0 {
		return nil, errors.New("reference child printed nothing")
	}
	return out.Bytes(), nil
}

// child builds a command re-running this binary in a child role for
// the same workload and seed.
func (w *workload) child(ctx context.Context, role string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-role", role, "-workload", w.name,
		"-seed", strconv.Itoa(w.index), "-workdir", w.workdir)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resetPeakRSS clears the kernel's peak-RSS mark of this process
// (proc(5), clear_refs), so the next peakRSSMB covers only what runs
// after it.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's peak resident set size since the last
// resetPeakRSS (VmHWM in /proc/self/status).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ticks is the machine's processor time so far, summed over all
// processors, in clock ticks: the time the processors were in use, and
// the part of it the hypervisor stole to run other guests (proc(5),
// /proc/stat).
type ticks struct {
	busy, steal int64
}

func readTicks() (ticks, error) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}, err
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return ticks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t ticks
	for i, x := range f[1:9] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return ticks{}, err
		}
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.steal = v
			t.busy += v
		default:
			t.busy += v
		}
	}
	return t, nil
}

// stealShare is the share of the processor time in use between a and b
// that the hypervisor gave to other guests. Being a share of busy time,
// not of all time, (1 - share) of a wall interval is the time the code
// ran whether it kept one processor busy or both. It is 0 when no tick
// elapsed.
func stealShare(a, b ticks) float64 {
	busy := b.busy - a.busy
	if busy <= 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(busy)
}
