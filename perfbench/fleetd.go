package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonSpec is the fleetd command line a workload runs.
type daemonSpec struct {
	m, n    int
	seed    uint64
	ckptIvl time.Duration
}

// daemon is one running fleetd process with its own temp directory and
// loopback port.
type daemon struct {
	cmd    *exec.Cmd
	dir    string
	base   string // http://127.0.0.1:port
	stderr *lockedBuffer
	done   chan error // receives cmd.Wait's result once
	exited bool
	err    error
}

// lockedBuffer collects the daemon's log while the process writes it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs fleetd on a fresh temp dir and a free port and
// waits for its first healthy /healthz. It returns the daemon and the
// time from exec to that first healthy answer.
func startDaemon(ctx context.Context, bin, workdir string, spec daemonSpec) (*daemon, time.Duration, error) {
	dir, err := os.MkdirTemp(workdir, "fleetd-")
	if err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	args := []string{
		"-checkpoint", filepath.Join(dir, "fleet.ckpt"),
		"-http", "127.0.0.1:" + strconv.Itoa(port),
		"-m", strconv.Itoa(spec.m), "-n", strconv.Itoa(spec.n),
		"-kind", "uniform", "-seed", strconv.FormatUint(spec.seed, 10),
		"-checkpoint-interval", spec.ckptIvl.String(),
	}
	d := &daemon{
		dir:    dir,
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		stderr: &lockedBuffer{},
		done:   make(chan error, 1),
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = d.stderr
	d.cmd.Stderr = d.stderr
	// The daemon dies with the benchmark, even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("start fleetd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	deadline := t0.Add(60 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return d, time.Since(t0), nil
			}
		}
		select {
		case err := <-d.done:
			d.exited, d.err = true, err
			d.cleanup()
			return nil, 0, fmt.Errorf("fleetd exited before becoming healthy (%v):\n%s", err, d.stderr.String())
		case <-ctx.Done():
			d.kill()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, errors.New("fleetd did not become healthy within 60s")
		}
	}
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// selfPeakRSSMB reads the benchmark process's own VmHWM in MiB.
func selfPeakRSSMB() (float64, error) {
	return vmHWM("/proc/self/status")
}

// vmHWM parses the VmHWM line of a /proc/<pid>/status file, in MiB.
func vmHWM(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// stop sends SIGTERM and requires a clean exit: status 0 and fleetd's
// "shut down cleanly" log line. The temp dir is removed either way.
func (d *daemon) stop() error {
	defer d.cleanup()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal fleetd: %w", err)
	}
	select {
	case err := <-d.done:
		d.exited, d.err = true, err
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("fleetd did not exit within 60s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("fleetd exit: %v\n%s", d.err, d.stderr.String())
	}
	if !strings.Contains(d.stderr.String(), "fleetd: shut down cleanly") {
		return fmt.Errorf("fleetd exited 0 without its clean-shutdown line:\n%s", d.stderr.String())
	}
	return nil
}

// kill ends the process on an error path and waits for it.
func (d *daemon) kill() {
	if !d.exited {
		_ = d.cmd.Process.Kill()
		d.err = <-d.done
		d.exited = true
	}
	d.cleanup()
}

func (d *daemon) cleanup() { os.RemoveAll(d.dir) }

// getJSON GETs path and decodes a JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
