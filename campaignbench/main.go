// Command campaignbench is the repository's end-to-end benchmark. One
// invocation runs one workload of the interoperability campaign in this
// process, checks every pass against an oracle the timed path did not
// produce, and prints one JSON line with every metric by name and unit:
//
//	campaignbench -workload classic -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// reports the per-layer breakdown from a separate traced section. The
// workloads, metrics and measured spreads are described in NOTES.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// procs is both GOMAXPROCS and the campaign worker count: load comes
// from one process running one campaign at a time on a 2-CPU box.
const procs = 2

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's last line of output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: classic, checkpoint, versions or faults")
	seed := fs.Int64("seed", 1, "workload seed; picks the corpus slice of versions and faults")
	seconds := fs.Int("seconds", 10, "length of the timed section in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 the traced per-layer breakdown")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "campaignbench", "work"),
		"scratch directory for checkpoints and span dumps")
	role := fs.String("role", "", "child-process role: setup or reference (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "campaignbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	w, err := newWorkload(*name, *seed, *workdir)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 2
	}
	ctx := context.Background()

	switch *role {
	case "setup":
		// Report readiness on stdout; the parent times process start to
		// this line.
		if _, err := w.setup(nil); err != nil {
			fmt.Fprintln(stderr, "campaignbench: setup:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	case "reference":
		data, err := w.reference(ctx)
		if err != nil {
			fmt.Fprintln(stderr, "campaignbench: reference:", err)
			return 1
		}
		_, _ = stdout.Write(data)
		return 0
	case "":
	default:
		fmt.Fprintf(stderr, "campaignbench: unknown role %q\n", *role)
		return 2
	}

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	var rep *output
	if *trace == 1 {
		rep, err = measureTraced(ctx, w, *seconds, stderr)
	} else {
		rep, err = measure(ctx, w, *seconds, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
