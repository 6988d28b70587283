// Command scenariod serves the scenario layer over HTTP: a daemon
// holding one content-addressed result store behind a deduplicating job
// queue, so many clients (sweep scripts, CI, notebooks) share one cache
// instead of each recomputing the same cells. The client verbs talk to
// a running daemon; run is their in-process twin, which executes spec
// files directly, with or without a store, and needs no daemon.
//
//	scenariod serve  -addr 127.0.0.1:0 -store DIR [-shards N] [-maxcells N] [-maxbytes N]
//	scenariod submit -addr HOST:PORT [-wait] -spec FILE|-
//	scenariod get    -addr HOST:PORT KEY
//	scenariod ls     -addr HOST:PORT
//	scenariod stats  -addr HOST:PORT
//	scenariod run    [-store DIR] FILE|-...
//
// serve prints "scenariod listening on ADDR" once the socket is bound
// (scripts parse it to learn the ephemeral port) and shuts down cleanly
// on SIGINT/SIGTERM. run prints each spec's cell as the JobStatus JSON
// that submit -wait prints, "cached": true included when the store
// already held it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/scenario"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scenariod: ")
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	verb, args := os.Args[1], os.Args[2:]
	var err error
	switch verb {
	case "serve":
		err = serveCmd(args)
	case "submit":
		err = submitCmd(args)
	case "get":
		err = getCmd(args)
	case "ls":
		err = lsCmd(args)
	case "stats":
		err = statsCmd(args)
	case "run":
		err = runCmd(args)
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		log.Printf("unknown verb %q", verb)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		log.Fatalf("%s: %v", verb, err)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: scenariod <verb> [flags]

verbs:
  serve     run the daemon (HTTP API + job queue + store)
  submit    POST a spec file (or - for stdin) to a daemon
  get       poll one scenario key
  ls        list stored cells and in-flight jobs
  stats     print queue/storage/engine accounting
  run       execute spec files in process (no daemon), optionally
            against a store directory, and print each cell's status

run "scenariod <verb> -h" for the verb's flags.
`)
}

// baseURL normalizes an -addr value into the client base URL.
func baseURL(addr string) (string, error) {
	if addr == "" {
		return "", fmt.Errorf("missing -addr (host:port of a running scenariod)")
	}
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/"), nil
	}
	return "http://" + addr, nil
}

// serveCmd runs the daemon until SIGINT/SIGTERM.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	storeDir := fs.String("store", "", "content-addressed store directory (empty = in-memory cache)")
	shards := fs.Int("shards", 0, "queue worker count (0 = min(cores, 4))")
	workers := fs.Int("workers", 0, "per-simulation engine worker cap (0 = all cores)")
	maxCells := fs.Int("maxcells", 0, "cache cap: max stored cells (0 = unbounded)")
	maxBytes := fs.Int64("maxbytes", 0, "cache cap: max summed cell bytes (0 = unbounded)")
	remote := fs.String("remote", "", "shared-tier scenariod to front (host:port; empty = single tier)")
	remoteTimeout := fs.Duration("remote-timeout", 0, "per-round-trip remote deadline; a simulation the remote accepted is waited on past it (0 = 5s default)")
	remoteSync := fs.Bool("remote-sync", false, "write through to the remote synchronously on puts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	remoteBase := ""
	if *remote != "" {
		rb, err := baseURL(*remote)
		if err != nil {
			return err
		}
		remoteBase = rb
	}
	d, err := service.New(service.Config{
		Addr: *addr, StoreDir: *storeDir,
		Remote: remoteBase, RemoteTimeout: *remoteTimeout, RemoteSync: *remoteSync,
		Shards: *shards, EngineWorkers: *workers,
		MaxCells: *maxCells, MaxBytes: *maxBytes,
	})
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	// Scripts parse this line for the resolved ephemeral port; keep it on
	// stdout and keep the format stable.
	fmt.Printf("scenariod listening on %s (%s)\n", strings.TrimPrefix(d.BaseURL(), "http://"), d)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigs
	fmt.Printf("scenariod: %v: shutting down\n", sig)
	if err := d.Stop(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("scenariod: clean shutdown")
	return nil
}

// readSpec loads a spec from a file or stdin ("-").
func readSpec(path string) (scenario.Spec, error) {
	var spec scenario.Spec
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return spec, err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("decoding spec %s: %w", path, err)
	}
	return spec, nil
}

// printJSON pretty-prints one API response.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func submitCmd(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address (host:port)")
	specPath := fs.String("spec", "-", "spec JSON file (- for stdin)")
	wait := fs.Bool("wait", false, "block until the job completes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base, err := baseURL(*addr)
	if err != nil {
		return err
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	st, err := service.NewClient(base).Submit(context.Background(), spec, *wait)
	if err != nil {
		return err
	}
	return printJSON(st)
}

func getCmd(args []string) error {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address (host:port)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one KEY argument")
	}
	base, err := baseURL(*addr)
	if err != nil {
		return err
	}
	st, err := service.NewClient(base).Get(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	return printJSON(st)
}

func lsCmd(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address (host:port)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base, err := baseURL(*addr)
	if err != nil {
		return err
	}
	lr, err := service.NewClient(base).List(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("%d cell(s), %d in flight\n", len(lr.Cells), len(lr.Inflight))
	for _, c := range lr.Cells {
		fmt.Printf("  %s %-10s %-24s %d unit(s) %d bytes\n", c.Key, c.Kind, c.Name, c.Units, c.Size)
	}
	for _, j := range lr.Inflight {
		status := j.State
		if j.Error != "" {
			status += ": " + j.Error
		}
		fmt.Printf("  %s [%s]\n", j.Key, status)
	}
	return nil
}

func statsCmd(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address (host:port)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base, err := baseURL(*addr)
	if err != nil {
		return err
	}
	sr, err := service.NewClient(base).Stats(context.Background())
	if err != nil {
		return err
	}
	return printJSON(sr)
}

// runCmd is submit -wait without a daemon: it runs the spec files in
// order through scenario.Sweep, against -store when given, and prints
// each cell's status. On a failing cell the cells before it are printed
// (and stored) first.
func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	storeDir := fs.String("store", "", "content-addressed store directory (empty = no store)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("want at least one spec FILE (- for stdin)")
	}
	specs := make([]scenario.Spec, fs.NArg())
	for i, path := range fs.Args() {
		spec, err := readSpec(path)
		if err != nil {
			return err
		}
		specs[i] = spec
	}
	var store *scenario.Store
	if *storeDir != "" {
		st, err := scenario.OpenStore(*storeDir)
		if err != nil {
			return err
		}
		store = st
	}
	res, err := scenario.Sweep(specs, store)
	for _, cell := range res.Cells {
		if perr := printJSON(service.JobStatus{
			Key: cell.Key, State: service.StateDone, Cached: cell.Cached, Outcome: cell.Outcome,
		}); perr != nil {
			return perr
		}
	}
	return err
}
