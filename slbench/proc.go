package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/wire"
)

// buildServer compiles ./cmd/slserve of the tree under test into outDir.
func buildServer(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "slserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/slserve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build slserve: %w", err)
	}
	return bin, nil
}

// server is one running slserve process.
type server struct {
	cmd      *exec.Cmd
	pid      int
	wireAddr string
	httpAddr string
	drained  chan struct{} // closed once stdout reaches EOF
}

// freePorts asks the kernel for n distinct unused loopback ports. All
// n listeners are open at once, so the ports differ: slserve binds both
// of its listeners to ports named here, since a port the kernel hands
// out for 127.0.0.1:0 after this one was closed may be the same one.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// bootAttempts is how many times startServer tries to boot slserve: a
// port handed out by freePorts can be taken by another process before
// slserve binds it.
const bootAttempts = 3

// startServer execs slserve with the workload's fault set and returns
// once it answers a wire Ping, with the time from exec to that answer.
// A failed boot is retried on fresh ports, at most bootAttempts times.
func startServer(bin string, in *inputs, procs int) (*server, time.Duration, error) {
	var errs []error
	for i := 0; i < bootAttempts; i++ {
		s, t, err := bootServer(bin, in, procs)
		if err == nil {
			return s, t, nil
		}
		errs = append(errs, err)
	}
	return nil, 0, errors.Join(errs...)
}

// bootServer is one attempt of startServer.
func bootServer(bin string, in *inputs, procs int) (*server, time.Duration, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, 0, err
	}
	args := []string{
		"-n", strconv.Itoa(in.w.dim),
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[0]),
		"-wire-addr", fmt.Sprintf("127.0.0.1:%d", ports[1]),
		"-deadline", "1s",
	}
	if in.initial.NodeFaults() > 0 {
		args = append(args, "-faults", in.faultList())
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid, httpAddr: fmt.Sprintf("127.0.0.1:%d", ports[0]),
		drained: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.drained)
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "wire on "); !sent && i >= 0 {
				addrCh <- strings.TrimSpace(line[i+len("wire on "):])
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		if !sent {
			close(addrCh)
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			s.stop()
			return nil, 0, errors.New("slserve exited before serving")
		}
		s.wireAddr = addr
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, errors.New("slserve did not start within 60s")
	}
	cl, err := wire.Dial(s.wireAddr, wire.ClientOptions{})
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.Ping(ctx); err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("first ping: %w", err)
	}
	return s, time.Since(start), nil
}

// stop kills the process and waits until it and its output reader end.
func (s *server) stop() {
	_ = s.cmd.Process.Kill()
	<-s.drained
	_ = s.cmd.Wait()
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the process's CPU time: the run time of its threads
// from /proc/<pid>/task/*/schedstat, in nanoseconds, or where the
// kernel keeps no schedstat, utime+stime from /proc/<pid>/stat, in
// 10ms ticks. A window of a few hundred milliseconds needs the former.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	read := 0
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited, or there is no schedstat
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s/%s/schedstat", dir, t.Name())
		}
		sum += v
		read++
	}
	if read > 0 {
		return time.Duration(sum), nil
	}
	return procTicks(pid)
}

// procTicks returns the process's utime+stime from /proc/<pid>/stat.
func procTicks(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	k, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(u+k) * clockTick, nil
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the aggregate line of /proc/stat, in ticks.
type cpuStat struct{ total, steal int64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var st cpuStat
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// stealPct is host steal between two /proc/stat readings, in percent.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// envInfo is recorded with every run so an outlier can be explained.
type envInfo struct {
	Workload      string `json:"workload"`
	Seed          uint64 `json:"seed"`
	CPU           string `json:"cpu"`
	NProc         int    `json:"nproc"`
	BenchMaxProcs int    `json:"bench_gomaxprocs"`
	ServeMaxProcs int    `json:"slserve_gomaxprocs"`
	GoVersion     string `json:"go_version"`
	Commit        string `json:"commit"`
	// Run health, so an outlier run can be explained: host steal over
	// the measured phases, and the delta pacer's p99 lateness.
	StealPct float64 `json:"steal_pct"`
	LateMS   float64 `json:"gen_late_ms"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the tree under test: the git commit when the root is a
// repository, otherwise a digest of every Go source and module file
// outside the benchmark's own directory.
func commitOf(root, benchDir string) string {
	cmd := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		top, head, _ := strings.Cut(strings.TrimSpace(string(out)), "\n")
		if abs, _ := filepath.Abs(root); top == abs {
			return head
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p == benchDir || (p != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func newEnvInfo(w workload, seed uint64, root, benchDir string, serveProcs int) envInfo {
	return envInfo{
		Workload:      w.name,
		Seed:          seed,
		CPU:           cpuModel(),
		NProc:         runtime.NumCPU(),
		BenchMaxProcs: serveProcs,
		ServeMaxProcs: serveProcs,
		GoVersion:     runtime.Version(),
		Commit:        commitOf(root, benchDir),
	}
}
