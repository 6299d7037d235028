package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Binaries locates the built node and load-generator executables.
type Binaries struct {
	Ecnode string
	Ecload string
}

// Build compiles cmd/ecnode and cmd/ecload into dir with the go toolchain.
// The build must run from inside the module; tests and experiments satisfy
// that because the go test working directory is the package directory.
func Build(dir string) (Binaries, error) {
	b := Binaries{
		Ecnode: filepath.Join(dir, "ecnode"),
		Ecload: filepath.Join(dir, "ecload"),
	}
	for bin, pkg := range map[string]string{b.Ecnode: "repro/cmd/ecnode", b.Ecload: "repro/cmd/ecload"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			return b, fmt.Errorf("cluster: go build %s: %v\n%s", pkg, err, out)
		}
	}
	return b, nil
}

// Node is one running (or killed) ecnode OS process.
type Node struct {
	Spec Spec
	bin  string
	log  string

	mu     sync.Mutex
	cmd    *exec.Cmd
	waited chan struct{} // closed when the reaper goroutine has Wait()ed
}

// startNode launches an ecnode process for spec, with stdout+stderr
// appended to a per-node log file in logDir.
func startNode(bin string, spec Spec, logDir string) (*Node, error) {
	n := &Node{
		Spec: spec,
		bin:  bin,
		log:  filepath.Join(logDir, fmt.Sprintf("node%d.log", spec.Cfg.ID)),
	}
	if err := n.start(); err != nil {
		return nil, err
	}
	return n, nil
}

// start launches (or relaunches) the process.
func (n *Node) start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cmd != nil {
		return fmt.Errorf("cluster: node %d is already running", n.Spec.Cfg.ID)
	}
	logf, err := os.OpenFile(n.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(n.bin, "-config", n.Spec.Path)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("cluster: start node %d: %w", n.Spec.Cfg.ID, err)
	}
	waited := make(chan struct{})
	go func() {
		cmd.Wait() // reap; exit status is irrelevant for SIGKILLed children
		logf.Close()
		close(waited)
	}()
	n.cmd = cmd
	n.waited = waited
	return nil
}

// Running reports whether the node process is currently live.
func (n *Node) Running() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cmd != nil
}

// signalAndReap sends sig and waits up to grace for the process to exit; on
// timeout it escalates to SIGKILL. The node is marked stopped either way.
func (n *Node) signalAndReap(sig syscall.Signal, grace time.Duration) error {
	n.mu.Lock()
	cmd, waited := n.cmd, n.waited
	n.cmd, n.waited = nil, nil
	n.mu.Unlock()
	if cmd == nil {
		return nil
	}
	cmd.Process.Signal(sig)
	select {
	case <-waited:
		return nil
	case <-time.After(grace):
		cmd.Process.Kill()
		<-waited
		if sig != syscall.SIGKILL {
			return fmt.Errorf("cluster: node %d ignored %v; escalated to SIGKILL", n.Spec.Cfg.ID, sig)
		}
		return nil
	}
}

// Kill SIGKILLs the process — the crash model of the paper: no goodbye, no
// flush, the kernel tears the sockets down.
func (n *Node) Kill() error { return n.signalAndReap(syscall.SIGKILL, 5*time.Second) }

// Stop shuts the node down gracefully (SIGTERM, escalating to SIGKILL after
// grace).
func (n *Node) Stop(grace time.Duration) error { return n.signalAndReap(syscall.SIGTERM, grace) }

// Restart relaunches a killed/stopped node with the same config — same mesh
// address, same client address. The survivors' peer writers are expected to
// reconnect to it with backoff.
func (n *Node) Restart() error { return n.start() }

// LoadReport is the JSON summary cmd/ecload emits (-json): committed
// operation count and rate, latency percentiles over successful operations,
// and a per-second committed-ops timeline for spotting the dip a kill
// causes.
type LoadReport struct {
	Addrs      []string `json:"addrs"`
	Workers    int      `json:"workers"`
	Rate       int      `json:"rate"` // requested ops/s cap; 0 = closed loop
	DurationMS int64    `json:"duration_ms"`
	Committed  int      `json:"committed"`
	Errors     int      `json:"errors"`
	OpsPerSec  float64  `json:"ops_per_sec"`
	P50MS      float64  `json:"p50_ms"`
	P95MS      float64  `json:"p95_ms"`
	P99MS      float64  `json:"p99_ms"`
	P999MS     float64  `json:"p999_ms"`
	PerSecond  []int    `json:"per_second"` // committed ops per elapsed second
}

// MinInteriorSecond returns the smallest per-second committed count,
// ignoring the first and last (partial) buckets; -1 when the timeline is too
// short. It is the "client-visible throughput dip" measure E16 reports.
func (r LoadReport) MinInteriorSecond() int {
	if len(r.PerSecond) < 3 {
		return -1
	}
	min := r.PerSecond[1]
	for _, v := range r.PerSecond[1 : len(r.PerSecond)-1] {
		if v < min {
			min = v
		}
	}
	return min
}

// Load is one running ecload process.
type Load struct {
	cmd    *exec.Cmd
	out    string
	stderr strings.Builder
}

// StartLoad launches ecload against addrs for the given duration in the
// background, writing its JSON report to a file in dir. rate caps total
// requested ops/s (0 = closed loop); conc is the worker count.
func StartLoad(bin string, addrs []string, d time.Duration, conc, rate int, dir string) (*Load, error) {
	l := &Load{out: filepath.Join(dir, fmt.Sprintf("load-%d.json", time.Now().UnixNano()))}
	l.cmd = exec.Command(bin,
		"-addrs", strings.Join(addrs, ","),
		"-duration", d.String(),
		"-conc", fmt.Sprint(conc),
		"-rate", fmt.Sprint(rate),
		"-json", l.out,
	)
	l.cmd.Stderr = &l.stderr
	if err := l.cmd.Start(); err != nil {
		return nil, fmt.Errorf("cluster: start ecload: %w", err)
	}
	return l, nil
}

// Wait blocks until the load run finishes and parses its report.
func (l *Load) Wait() (LoadReport, error) {
	var rep LoadReport
	if err := l.cmd.Wait(); err != nil {
		return rep, fmt.Errorf("cluster: ecload: %v\n%s", err, l.stderr.String())
	}
	data, err := os.ReadFile(l.out)
	if err != nil {
		return rep, fmt.Errorf("cluster: ecload report: %w", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("cluster: ecload report: %w", err)
	}
	return rep, nil
}
