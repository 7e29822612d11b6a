package main

import (
	"bufio"
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
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tiresias/api"
)

// server is one tiresias-serve process on loopback.
type server struct {
	cmd     *exec.Cmd
	base    string
	exited  chan struct{} // closed once cmd.Wait returned
	waitErr error         // cmd.Wait's result, set before exited closes
}

// live holds every server started and not yet stopped, so that a
// signal to the load generator can take them all down.
var live struct {
	sync.Mutex
	set    map[*server]struct{}
	closed bool // set by the signal handler; no server starts after it
}

// stopOnSignal makes SIGINT, SIGTERM and SIGHUP kill every live server,
// wait for each to end, and exit non-zero without a result.
func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-ch
		fmt.Fprintln(os.Stderr, "e2ebench: stopping on", sig)
		live.Lock()
		live.closed = true
		for s := range live.set {
			_ = s.cmd.Process.Kill()
		}
		for s := range live.set {
			<-s.exited
		}
		live.Unlock()
		os.Exit(1)
	}()
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches the binary and waits until it answers
// /v2/healthz.
func startServer(ctx context.Context, bin string, w workload, hc *http.Client) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	cmd := exec.Command(bin, w.serverArgs(addr)...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	// If the load generator is killed before stop runs, the kernel
	// takes the server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	live.Lock()
	if live.closed {
		live.Unlock()
		return nil, errors.New("stopping on a signal")
	}
	if err := cmd.Start(); err != nil {
		live.Unlock()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	if live.set == nil {
		live.set = map[*server]struct{}{}
	}
	live.set[s] = struct{}{}
	live.Unlock()
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v2/healthz", nil)
		resp, err := hc.Do(req)
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("server exited during start: %v", s.waitErr)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("server did not become ready within 30s")
		}
	}
}

// stop terminates the process and waits for it: SIGTERM lets it drain,
// SIGKILL follows if it lingers. It may be called more than once.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	live.Lock()
	delete(live.set, s)
	live.Unlock()
}

// procStat is the server's CPU time and peak RSS from /proc.
type procStat struct {
	cpu    time.Duration // utime + stime
	hwmKiB int64         // VmHWM
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times (100 on
// every Linux ABI Go supports).
const clockTick = 100

// readProc samples the server's /proc entries.
func (s *server) readProc() (procStat, error) {
	pid := s.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return procStat{}, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return procStat{}, errors.New("short /proc stat")
	}
	// utime and stime are fields 14 and 15 of the full line; after the
	// command name the state is field 3, so they sit at 11 and 12.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return procStat{}, err
	}
	ps := procStat{cpu: time.Duration(ut+st) * time.Second / clockTick}
	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStat{}, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB"))
			ps.hwmKiB, err = strconv.ParseInt(kb, 10, 64)
			if err != nil {
				return procStat{}, err
			}
		}
	}
	return ps, sc.Err()
}

// drain discards and closes a response body so the connection is
// reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// getJSON fetches base+path into out.
func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// queueDepth sums the pipeline queue depth over the shards of a stats
// snapshot (tiresias_pipeline_queue_depth).
func queueDepth(st api.StatsResponse) int {
	n := 0
	for _, sh := range st.Manager.Shards {
		if sh.Pipeline != nil {
			n += sh.Pipeline.QueueDepth
		}
	}
	return n
}

// scrape reads GET /metrics into a map from series (name plus label
// set, as exposed) to value.
func (s *server) scrape(ctx context.Context, hc *http.Client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
