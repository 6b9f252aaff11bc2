package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"rlts/internal/obs"
)

// serverProc is one running rlts-server child process.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error // receives cmd.Wait's result once
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

// startServer execs rlts-server with args and returns once /healthz first
// answers 200, together with the time from exec to that answer: the
// server's own set-up (policy loading, FastMath clones, spill recovery).
func startServer(e *env, args ...string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(filepath.Join(e.work, "server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(e.server, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	url := "http://" + addr + "/healthz"

	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start rlts-server: %w", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	for {
		resp, err := probe.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		select {
		case err := <-p.done:
			logf.Close()
			return nil, 0, fmt.Errorf("rlts-server exited before answering /healthz: %v (see %s)", err, logf.Name())
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			p.stop()
			return nil, 0, fmt.Errorf("rlts-server did not answer /healthz within 30s")
		}
	}
}

// stop asks the server to drain (SIGTERM), kills it if it lingers, and
// waits until it has exited.
func (p *serverProc) stop() {
	defer p.log.Close()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(60 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// peakRSS is the server process's VmHWM in MiB.
func (p *serverProc) peakRSS() (float64, error) {
	return vmHWM(strconv.Itoa(p.cmd.Process.Pid))
}

// scrape fetches and parses the server's /metrics.
func (p *serverProc) scrape() ([]obs.Sample, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseText(resp.Body)
}

// setupServers starts rlts-server repeats times, records the median
// exec-to-healthy time, and returns the last process still running for
// the measured window. A single cold start varies by tens of percent, so
// the median of several is the reported set-up time.
func setupServers(e *env, repeats int, args ...string) (*serverProc, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		p, d, err := startServer(e, args...)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i == repeats-1 {
			fmt.Printf("setup: %d starts of rlts-server, exec to healthy %.2f-%.2f ms, median %.2f ms\n",
				repeats, 1e3*quantile(times, 0), 1e3*quantile(times, 1), 1e3*median(times))
			return p, median(times), nil
		}
		p.stop()
	}
}
