package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/gyan-server from the checkout's source into the
// build directory, once per run. A warm build cache makes this a fraction
// of a second; the first run in a checkout pays the full compile.
func (e *env) buildServer() error {
	if e.serverBin != "" {
		return nil
	}
	bin := filepath.Join(filepath.Dir(e.root), "gyan-server")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gyan-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build gyan-server: %v\n%s", err, out)
	}
	e.logf("built gyan-server in %.1fs", time.Since(t0).Seconds())
	e.serverBin = bin
	return nil
}

// proc is one gyan-server child process.
type proc struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	forget  func()
	bootMS  float64
	// exited closes once the child has been reaped.
	exited chan struct{}
}

// freeAddr reserves a loopback port and releases it for a child to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches gyan-server and waits for its API to answer.
func (e *env) startServer(logName string, args ...string) (*proc, error) {
	t0 := time.Now()
	p, err := e.launchServer(logName, args...)
	if err != nil {
		return nil, err
	}
	if err := p.waitReady(30 * time.Second); err != nil {
		p.stop()
		return nil, fmt.Errorf("%w\n%s", err, p.logTail())
	}
	p.bootMS = float64(time.Since(t0)) / 1e6
	return p, nil
}

// launchServer starts gyan-server with the given flags plus -addr, without
// waiting for it. The child is killed and reaped by stop, or by the cleanup
// registry if the benchmark exits first.
func (e *env) launchServer(logName string, args ...string) (*proc, error) {
	if err := e.buildServer(); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(e.root, logName+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(e.serverBin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gyan-server: %w", err)
	}
	p := &proc{cmd: cmd, addr: addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server says nothing
		close(p.exited)
	}()
	p.forget = e.clean.add(p.kill)
	return p, nil
}

func (p *proc) waitReady(timeout time.Duration) error {
	client := http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get("http://" + p.addr + "/api/version")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("gyan-server exited before serving %s", p.addr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gyan-server did not answer on %s within %v", p.addr, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill delivers SIGKILL and waits until the child is reaped; safe to call
// twice.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

func (p *proc) stop() {
	p.kill()
	p.forget()
}

func (p *proc) logTail() string {
	data, err := os.ReadFile(p.logPath)
	if err != nil {
		return ""
	}
	if len(data) > 4096 {
		data = data[len(data)-4096:]
	}
	return string(data)
}

// clockTick is the kernel's USER_HZ; /proc reports CPU time in these. It is
// 100 on every Linux platform Go supports.
const clockTick = 100

// cpu is the child's user+system CPU time so far, from /proc/<pid>/stat.
func (p *proc) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted from its ")".
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// rssPeakMB is the child's peak resident set (VmHWM).
func (p *proc) rssPeakMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// heapStats is the part of runtime.MemStats the benchmark reads: of this
// process (localHeap) or of a server, through the pprof heap endpoint's text
// form (fetchHeap). With gc a collection runs first, so heapAlloc is live
// memory.
type heapStats struct {
	totalAlloc, heapAlloc float64
	pauseNS               float64
}

func (p *proc) heap(client *http.Client, gc bool) (heapStats, error) {
	return fetchHeap(client, "http://"+p.addr, gc)
}

func fetchHeap(client *http.Client, base string, gc bool) (heapStats, error) {
	url := base + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	resp, err := client.Get(url)
	if err != nil {
		return heapStats{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return heapStats{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return heapStats{}, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var hs heapStats
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, "# ")
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, " = ")
		if !ok {
			continue
		}
		switch name {
		case "TotalAlloc":
			hs.totalAlloc, _ = strconv.ParseFloat(val, 64)
			found++
		case "HeapAlloc":
			hs.heapAlloc, _ = strconv.ParseFloat(val, 64)
			found++
		case "PauseNs":
			// The last 256 pauses; the benchmark's servers collect fewer.
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				ns, _ := strconv.ParseFloat(f, 64)
				hs.pauseNS += ns
			}
		}
	}
	if found < 2 {
		return hs, fmt.Errorf("no MemStats in %s", url)
	}
	return hs, nil
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
