package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// env is where the benchmark runs: the repo checkout it builds from and
// the scratch directory (inside the checkout, git-ignored) that holds
// the built binary and every run's work directories.
type env struct {
	root     string // absolute repo root
	buildDir string // root/.bench_build
	bin      string // the built overton CLI
	conns    int    // keep-alive connections the generator drives
}

// basePort is where free-port probing starts. Probing in a fixed order
// gives the same ports run after run unless something else holds one,
// which keeps the router's rendezvous placement (hashed on replica URL)
// repeatable.
const basePort = 18710

// trainSeed is the fixed `overton train -seed`: the benchmark seed picks
// the data and the traffic, the train seed only initialisation and which
// trials a -search samples, so build_s compares like with like.
const trainSeed = 1

// newEnv locates the repo root (the benchmark runs from it, or from
// bench/ under `go run -C bench .`) and prepares the scratch directory.
func newEnv() (*env, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "overton", "main.go")); err != nil {
			continue
		}
		root, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		e := &env{root: root, buildDir: filepath.Join(root, ".bench_build"), conns: min(runtime.NumCPU(), 4)}
		e.bin = filepath.Join(e.buildDir, "bin", "overton")
		if err := os.MkdirAll(filepath.Join(e.buildDir, "work"), 0o755); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, fmt.Errorf("bench: run from the repo root or bench/ (cmd/overton not found)")
}

// procs tracks every live child and work directory so an interrupt can
// clean up from the signal handler.
var procs = struct {
	sync.Mutex
	children map[*child]bool
	dirs     map[string]bool
}{children: map[*child]bool{}, dirs: map[string]bool{}}

// child is one `overton serve` or `overton route` process.
type child struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when Wait returns
}

// startChild launches the CLI with args, logging to dir/name.log.
// GOMAXPROCS is left at its default for children.
func (e *env) startChild(dir, name, url string, args ...string) (*child, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	// A generator that dies without running its cleanup must not leave
	// servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, url: url, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status of a killed server carries no information
		close(c.done)
	}()
	procs.Lock()
	procs.children[c] = true
	procs.Unlock()
	return c, nil
}

// stop kills the child and waits until it has ended.
func (c *child) stop() {
	_ = c.cmd.Process.Kill() // already-exited is fine
	<-c.done
	c.log.Close()
	procs.Lock()
	delete(procs.children, c)
	procs.Unlock()
}

// peakRSSMB reads the child's high-water resident set from /proc.
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", c.name)
}

// cleanupAll kills every tracked child and removes every tracked work
// directory; the normal path has already emptied both sets.
func cleanupAll() {
	procs.Lock()
	children := make([]*child, 0, len(procs.children))
	for c := range procs.children {
		children = append(children, c)
	}
	dirs := make([]string, 0, len(procs.dirs))
	for d := range procs.dirs {
		dirs = append(dirs, d)
	}
	procs.Unlock()
	for _, c := range children {
		c.stop()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// workDir creates a tracked per-run directory under the scratch dir.
func (e *env) workDir(label string) (string, error) {
	dir, err := os.MkdirTemp(filepath.Join(e.buildDir, "work"), label+"-")
	if err != nil {
		return "", err
	}
	procs.Lock()
	procs.dirs[dir] = true
	procs.Unlock()
	return dir, nil
}

// removeDir deletes a tracked work directory.
func removeDir(dir string) {
	os.RemoveAll(dir)
	procs.Lock()
	delete(procs.dirs, dir)
	procs.Unlock()
}

// freePort returns the first port at or after *next that can be
// listened on, and advances *next past it.
func freePort(next *int) (int, error) {
	for p := *next; p < *next+500; p++ {
		l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p))
		if err != nil {
			continue
		}
		l.Close()
		*next = p + 1
		return p, nil
	}
	return 0, fmt.Errorf("no free port in [%d,%d)", *next, *next+500)
}

// waitReady polls url until it answers 200, the child exits, or the
// timeout passes.
func waitReady(c *child, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("%s exited during start-up (see %s)", c.name, c.log.Name())
		default:
		}
		resp, err := httpClient.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready at %s after %s", c.name, url, timeout)
}

// cli runs one overton subcommand to completion in dir and returns its
// standard output.
func (e *env) cli(ctx context.Context, dir string, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, e.bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("overton %s: %w: %s", args[0], err, lastLine(stderr.String()))
	}
	return stdout.Bytes(), nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// buildCLI compiles cmd/overton into the scratch dir. After the first
// run in a checkout this is a build-cache hit.
func (e *env) buildCLI(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin, "./cmd/overton")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/overton: %w: %s", err, lastLine(string(out)))
	}
	return nil
}

// rig is one set-up system under test: built artifacts on disk and the
// serving children in front of them.
type rig struct {
	w   workloadDef
	dir string
	// front is the base URL traffic is sent to: the router when the
	// workload has one, the single serve child otherwise.
	front string
	// replicas are the serve children (one entry, equal to front, when
	// unrouted); telDirs are their telemetry directories.
	replicas []*child
	telDirs  []string
	router   *child

	primaryPath, shadowPath, dataPath, schemaPath string

	// buildQuality is the mean primary metric over tasks on the dev tag.
	buildQuality float64
	buildS       float64
	setupS       float64
}

// buildModel runs the engineer's loop for one model: train (with the
// spec's tuning and search budget) and report. It returns the dev
// quality from the report.
func (e *env) buildModel(ctx context.Context, dir string, spec modelSpec, out string) (float64, error) {
	args := []string{"train", "-schema", "schema.json", "-data", "data.jsonl",
		"-out", out, "-seed", strconv.Itoa(trainSeed), "-search", strconv.Itoa(spec.Search)}
	if spec.Tuning != "" {
		args = append(args, "-tuning", filepath.Join(e.root, "bench", "testdata", spec.Tuning))
	}
	if _, err := e.cli(ctx, dir, args...); err != nil {
		return 0, err
	}
	rep, err := e.cli(ctx, dir, "report", "-model", out, "-data", "data.jsonl", "-tag", "dev", "-json")
	if err != nil {
		return 0, err
	}
	var parsed struct {
		Overall map[string]struct{ Primary float64 } `json:"overall"`
	}
	if err := json.Unmarshal(rep, &parsed); err != nil {
		return 0, fmt.Errorf("parse report: %w", err)
	}
	if len(parsed.Overall) == 0 {
		return 0, fmt.Errorf("report has no overall task metrics")
	}
	var sum float64
	for _, tm := range parsed.Overall {
		sum += tm.Primary
	}
	quality := sum / float64(len(parsed.Overall))
	if quality < spec.QualityFloor {
		return quality, fmt.Errorf("built model %s has dev quality %.4f, below its floor %.2f", out, quality, spec.QualityFloor)
	}
	return quality, nil
}

// setUp builds the CLI, generates data from the seed, builds the
// workload's model(s), starts its children and waits until they are
// ready. Everything it creates is released by tearDown.
func (e *env) setUp(ctx context.Context, w workloadDef, seed int64) (r *rig, err error) {
	t0 := time.Now()
	if err := e.buildCLI(ctx); err != nil {
		return nil, err
	}
	dir, err := e.workDir(w.Name)
	if err != nil {
		return nil, err
	}
	r = &rig{w: w, dir: dir,
		primaryPath: filepath.Join(dir, "primary.bin"),
		dataPath:    filepath.Join(dir, "data.jsonl"),
		schemaPath:  filepath.Join(dir, "schema.json"),
	}
	defer func() {
		if err != nil {
			r.tearDown()
			r = nil
		}
	}()

	tBuild := time.Now()
	if _, err := e.cli(ctx, dir, "datagen", "-n", strconv.Itoa(w.Primary.Records),
		"-seed", strconv.FormatInt(seed, 10), "-out", "data.jsonl", "-schema-out", "schema.json"); err != nil {
		return r, err
	}
	if r.buildQuality, err = e.buildModel(ctx, dir, w.Primary, "primary.bin"); err != nil {
		return r, err
	}
	r.buildS = time.Since(tBuild).Seconds()
	if w.Shadow != nil {
		r.shadowPath = filepath.Join(dir, "shadow.bin")
		if _, err := e.buildModel(ctx, dir, *w.Shadow, "shadow.bin"); err != nil {
			return r, err
		}
	}

	if err := e.startChildren(r); err != nil {
		return r, err
	}
	r.setupS = time.Since(t0).Seconds()
	return r, nil
}

// startChildren launches the workload's serve (and route) processes.
func (e *env) startChildren(r *rig) error {
	w := r.w
	next := basePort
	nServe := max(w.Replicas, 1)
	for i := 0; i < nServe; i++ {
		port, err := freePort(&next)
		if err != nil {
			return err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		args := []string{"serve", "-addr", addr}
		for _, dep := range w.Deployments {
			args = append(args, "-deploy", dep+"=primary.bin")
			if w.Shadow != nil {
				args = append(args, "-shadow", dep+"=shadow.bin")
			}
		}
		if w.Precision != "" {
			args = append(args, "-precision", w.Precision)
		}
		telDir := filepath.Join(r.dir, fmt.Sprintf("telemetry-%d", i))
		if w.Durable {
			state := filepath.Join(r.dir, fmt.Sprintf("state-%d", i))
			telDir = filepath.Join(state, "telemetry")
			args = append(args, "-state-dir", state,
				"-slice", "nutrition=nutrition AND age<1h",
				"-slice", "height=task.Intent=Height")
		} else {
			args = append(args, "-telemetry-dir", telDir)
		}
		c, err := e.startChild(r.dir, fmt.Sprintf("serve-%d", i), "http://"+addr, args...)
		if err != nil {
			return err
		}
		r.replicas = append(r.replicas, c)
		r.telDirs = append(r.telDirs, telDir)
	}
	for _, c := range r.replicas {
		if err := waitReady(c, c.url+"/readyz", 20*time.Second); err != nil {
			return err
		}
	}
	r.front = r.replicas[0].url
	if w.Replicas > 0 {
		router, err := e.startRouter(r.dir, &next, r.replicas)
		r.router = router // kept on error too, so tearDown stops it
		if err != nil {
			return err
		}
		r.front = router.url
	}
	return nil
}

// startRouter launches `overton route` over replicas and waits until it
// reports every one of them healthy.
func (e *env) startRouter(dir string, next *int, replicas []*child) (*child, error) {
	port, err := freePort(next)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"route", "-addr", addr, "-probe-interval", "100ms"}
	for _, rep := range replicas {
		args = append(args, "-replica", rep.url)
	}
	router, err := e.startChild(dir, "route", "http://"+addr, args...)
	if err != nil {
		return nil, err
	}
	if err := waitReady(router, router.url+"/readyz", 20*time.Second); err != nil {
		return router, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var stats cluster.ClusterStats
		if err := getJSON(router.url+"/v1/cluster/stats", &stats); err != nil {
			return router, err
		}
		healthy := 0
		for _, rs := range stats.Replicas {
			if rs.Healthy {
				healthy++
			}
		}
		if healthy == len(replicas) {
			return router, nil
		}
		if time.Now().After(deadline) {
			return router, fmt.Errorf("router sees %d of %d replicas healthy", healthy, len(replicas))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// children lists every live process of the rig.
func (r *rig) children() []*child {
	all := append([]*child{}, r.replicas...)
	if r.router != nil {
		all = append(all, r.router)
	}
	return all
}

// peakRSSMB sums the children's high-water resident sets.
func (r *rig) peakRSSMB() (float64, error) {
	var sum float64
	for _, c := range r.children() {
		mb, err := c.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// tearDown stops the children and removes the work directory.
func (r *rig) tearDown() {
	for _, c := range r.children() {
		c.stop()
	}
	r.replicas, r.router = nil, nil
	// The next set-up reuses the ports; a kept-alive connection to a dead
	// server must not be handed to its first POST.
	httpClient.CloseIdleConnections()
	removeDir(r.dir)
}

// httpClient is the control-plane client: readiness polls, verification,
// the observe phase, ledger reads. It keeps one idle connection per
// generator connection so the closed-loop ingest phase reuses them.
var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

// getJSON GETs url and decodes the 200 response into v.
func getJSON(url string, v any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
