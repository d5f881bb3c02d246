package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fsyncPolicy is the one flush policy every server workload runs under;
// it is recorded in the result file because ack latency means nothing
// without it.
const fsyncPolicy = "250ms"

// nodeConfig is the part of sensd's configuration the workloads vary. All
// server workloads share `-format tbin -fsync 250ms -live -admin-addr ""`.
type nodeConfig struct {
	walDir string
	// coldDir enables the cold tier (window-cold only); the three fields
	// below are only passed with it.
	coldDir         string
	segBytes        int64
	compactInterval time.Duration
	cacheBytes      int64
}

// node is a running sensd: a separate process for the end-to-end numbers,
// the in-process traced composition for the per-layer ones. Workloads
// drive either through its URL alone.
type node interface {
	base() string
	// stop shuts the node down gracefully (SIGTERM for a process) and
	// returns once it has fully exited.
	stop() error
	// readyIn is exec → first 200 on /v1/status.
	readyIn() time.Duration
	// rssPeakMB is the peak resident set, known once stopped (0 for the
	// in-process node, whose memory is the benchmark's own).
	rssPeakMB() float64
}

// binaries are the programs built from the commit under test.
type binaries struct {
	sensd, autosens string
}

// buildBinaries compiles sensd and autosens into dir. The go tool's own
// cache makes the second build in a checkout a no-op.
func buildBinaries(ctx context.Context, dir string) (binaries, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return binaries{}, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs+string(filepath.Separator), "./cmd/sensd", "./cmd/autosens")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return binaries{}, fmt.Errorf("build sensd and autosens (run from the repository root): %w", err)
	}
	return binaries{sensd: filepath.Join(abs, "sensd"), autosens: filepath.Join(abs, "autosens")}, nil
}

// procNode is sensd as a child process.
type procNode struct {
	cmd   *exec.Cmd
	url   string
	ready time.Duration
	log   *os.File
	rssMB float64
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// sensdArgs is the fixed server command line.
func sensdArgs(addr string, cfg nodeConfig) []string {
	args := []string{
		"-addr", addr, "-wal-dir", cfg.walDir, "-format", "tbin",
		"-fsync", fsyncPolicy, "-live", "-admin-addr", "", "-log-level", "warn",
	}
	if cfg.coldDir != "" {
		args = append(args,
			"-cold-dir", cfg.coldDir,
			"-wal-segment-bytes", strconv.FormatInt(cfg.segBytes, 10),
			"-compact-interval", cfg.compactInterval.String(),
			"-cold-cache-bytes", strconv.FormatInt(cfg.cacheBytes, 10))
	}
	return args
}

// startProc execs sensd and polls /v1/status on the query connection
// until it answers 200; the wait is restart_ready_s when the directories
// already hold data.
func startProc(bin binaries, cfg nodeConfig, logPath string, q *conn) (*procNode, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin.sensd, sensdArgs(addr, cfg)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start sensd: %w", err)
	}
	n := &procNode{cmd: cmd, url: "http://" + addr, log: logf}
	if err := waitReady(q, n.url, 60*time.Second); err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		logf.Close()
		return nil, fmt.Errorf("sensd never became ready (see %s): %w", logPath, err)
	}
	n.ready = time.Since(start)
	return n, nil
}

// waitReady polls /v1/status until it answers 200.
func waitReady(q *conn, base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		status, _, _, err := q.get(base + "/v1/status")
		if err == nil && status == 200 {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("status %d", status)
			}
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (n *procNode) base() string           { return n.url }
func (n *procNode) readyIn() time.Duration { return n.ready }
func (n *procNode) rssPeakMB() float64     { return n.rssMB }

func (n *procNode) stop() error {
	defer n.log.Close()
	n.rssMB = peakRSSMB(n.cmd.Process.Pid)
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- n.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = n.cmd.Process.Kill()
		err = fmt.Errorf("sensd ignored SIGTERM for 30s and was killed: %v", <-done)
	}
	return err
}

// peakRSSMB reads a live process's peak resident set (VmHWM) from /proc;
// 0 when it cannot (the process is gone, or this is not Linux). The
// rusage a finished child reports is no use here: on Linux its ru_maxrss
// starts from the resident set of the process that forked it, so every
// child of this benchmark would appear at least as large as the benchmark.
func peakRSSMB(pid int) float64 {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runWatched runs a short-lived child to completion, sampling its peak
// resident set while it lives (the last sample can trail the true peak
// by whatever the child allocated in its final 10 ms).
func runWatched(cmd *exec.Cmd) (rssMB float64, err error) {
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			return rssMB, err
		case <-tick.C:
			rssMB = max(rssMB, peakRSSMB(cmd.Process.Pid))
		}
	}
}

// dirBytes sums the regular files under the given directories; a missing
// directory counts as empty.
func dirBytes(dirs ...string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		if dir == "" {
			continue
		}
		err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil {
				if os.IsNotExist(err) {
					return nil
				}
				return err
			}
			if d.Type().IsRegular() {
				info, err := d.Info()
				if err != nil {
					return err
				}
				total += info.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
