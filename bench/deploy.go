package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"harmony"
)

// clusterWait bounds every wait for a replicated deployment to get somewhere:
// a leader elected, a commit index reached, a client back after its server
// died. On a quiet machine these take a second or two; the bound is wide so
// that a slow phase of a shared host is measured, not reported as a failure.
const clusterWait = 30 * time.Second

// leaseGrace is how long a replicated harmonyd parks a dropped session for
// its client to resume. The client library's reconnect backs off 50 ms, 100
// ms, ... 3.2 s, 5 s, and a follower's redirect costs it one step, so a
// resident that meets two redirects during an election is back only after
// five seconds: a 5 s grace (the issue's figure) lets about one resume in ten
// lapse into a handshake replay, which the benchmark counts as a failure.
const leaseGrace = "30s"

// member is one harmonyd child process, restartable in place: its addresses
// and data directory survive a kill.
type member struct {
	client, peer string
	args         []string
	logPath      string
	cmd          *exec.Cmd
	// retiredCPU is the CPU time of earlier incarnations (killed leaders).
	retiredCPU float64
}

// Deployment is the set of harmonyd children serving one workload. The
// harness's own tests substitute servers inside the test process: members
// without a child process, torn down by stopInProcess.
type Deployment struct {
	bin     string
	members []*member

	// mu guards every member's cmd and retiredCPU: Stop also runs from the
	// run's context when it is cancelled, beside the goroutine driving the run.
	mu            sync.Mutex
	stopInProcess func()
}

// Ports come from below the kernel's ephemeral range: a port found free by
// binding to port 0 lies inside that range, and between the harness closing
// it and harmonyd binding it an outgoing connection — a replica dialing its
// peers, the writer's next cycle — can be given the very same port, which
// makes harmonyd's bind fail with "address already in use".
const portFloor = 10000

var ports struct {
	sync.Mutex
	handed map[int]bool
}

// ephemeralFloor reads the low end of the kernel's ephemeral port range.
func ephemeralFloor() int {
	data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err == nil {
		if f := strings.Fields(string(data)); len(f) == 2 {
			if lo, err := strconv.Atoi(f[0]); err == nil {
				return lo
			}
		}
	}
	return 32768 // Linux's default
}

// reservePort picks a free loopback port by binding and closing; harmonyd
// rebinds it a moment later. No port is handed out twice by one harness.
func reservePort() (string, error) {
	ports.Lock()
	defer ports.Unlock()
	if ports.handed == nil {
		ports.handed = make(map[int]bool)
	}
	ceil := ephemeralFloor()
	if ceil <= portFloor {
		ceil = 65536 // nothing below the ephemeral range: any free port
	}
	var lastErr error
	for try := 0; try < 200; try++ {
		p := portFloor + rand.Intn(ceil-portFloor)
		if ports.handed[p] {
			continue
		}
		ln, err := net.Listen("tcp", net.JoinHostPort("127.0.0.1", strconv.Itoa(p)))
		if err != nil {
			lastErr = err
			continue
		}
		ports.handed[p] = true
		_ = ln.Close()
		return ln.Addr().String(), nil
	}
	return "", fmt.Errorf("no free loopback port: %w", lastErr)
}

// startDeployment launches the workload's harmonyd children with default
// flags (beyond cluster, addresses and, replicated, data dir and lease
// grace) and returns once every member accepts connections.
func startDeployment(bin, dir string, w Workload) (*Deployment, error) {
	var d *Deployment
	var err error
	// Reserving by bind-and-close leaves a moment in which another process on
	// the host can take the port; new ports are tried before giving up.
	for try := 0; try < 3; try++ {
		if d, err = startOnce(bin, dir, w); err == nil {
			return d, nil
		}
		// The members that did start wrote a log naming peers that are gone.
		for i := 0; i < w.Members; i++ {
			_ = os.RemoveAll(filepath.Join(dir, fmt.Sprintf("data-%d", i)))
		}
	}
	return nil, err
}

func startOnce(bin, dir string, w Workload) (*Deployment, error) {
	d := &Deployment{bin: bin}
	var cluster []string
	if w.SP2 > 0 {
		cluster = []string{"-sp2", strconv.Itoa(w.SP2)}
	} else {
		path := filepath.Join(dir, "cluster.rsl")
		if err := os.WriteFile(path, []byte(w.Resources), 0o644); err != nil {
			return nil, err
		}
		cluster = []string{"-resources", path}
	}
	for i := 0; i < w.Members; i++ {
		m := &member{logPath: filepath.Join(dir, fmt.Sprintf("harmonyd-%d.log", i))}
		var err error
		if m.client, err = reservePort(); err != nil {
			return nil, err
		}
		if w.Members > 1 {
			if m.peer, err = reservePort(); err != nil {
				return nil, err
			}
		}
		d.members = append(d.members, m)
	}
	for i, m := range d.members {
		m.args = append([]string{"-addr", m.client}, cluster...)
		if w.Members > 1 {
			var peers []string
			for j, o := range d.members {
				if j != i {
					peers = append(peers, o.peer)
				}
			}
			m.args = append(m.args, "-peer-addr", m.peer, "-peers", strings.Join(peers, ","),
				"-data-dir", filepath.Join(dir, fmt.Sprintf("data-%d", i)), "-lease-grace", leaseGrace)
		}
	}
	for i := range d.members {
		if err := d.start(i); err != nil {
			d.Stop()
			return nil, err
		}
	}
	for i := range d.members {
		if err := d.waitListening(i); err != nil {
			d.Stop()
			return nil, err
		}
	}
	return d, nil
}

// start launches member i in its own process group with its log appended to
// a file in the run directory. Pdeathsig kills it should the harness die
// without running its exit path.
func (d *Deployment) start(i int) error {
	m := d.members[i]
	logf, err := os.OpenFile(m.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(d.bin, m.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start harmonyd: %w", err)
	}
	m.cmd = cmd
	return nil
}

// pid reports member i's process id, or 0 while it is down.
func (d *Deployment) pid(i int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.members[i].cmd == nil {
		return 0
	}
	return d.members[i].cmd.Process.Pid
}

func (d *Deployment) waitListening(i int) error {
	m := d.members[i]
	deadline := time.Now().Add(10 * time.Second)
	for {
		nc, err := net.DialTimeout("tcp", m.client, time.Second)
		if err == nil {
			return nc.Close()
		}
		if time.Now().After(deadline) || procExited(d.pid(i)) {
			return fmt.Errorf("harmonyd %d never listened on %s: %w (log: %s)", i, m.client, err, tailFile(m.logPath))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL to member i's process group and reaps it.
func (d *Deployment) kill(i int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.members[i]
	if m.cmd == nil {
		return
	}
	if cpu, err := procCPUSeconds(m.cmd.Process.Pid); err == nil {
		m.retiredCPU += cpu
	}
	_ = syscall.Kill(-m.cmd.Process.Pid, syscall.SIGKILL)
	_ = m.cmd.Wait()
	m.cmd = nil
}

// Stop kills every child and waits for each to end.
func (d *Deployment) Stop() {
	for i := range d.members {
		d.kill(i)
	}
	d.mu.Lock()
	stop := d.stopInProcess
	d.stopInProcess = nil
	d.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// Addrs lists the members' client addresses with member first leading: pass
// a follower's index so clients meet a leader redirect on their first call.
func (d *Deployment) Addrs(first int) string {
	var out []string
	for i := range d.members {
		out = append(out, d.members[(first+i)%len(d.members)].client)
	}
	return strings.Join(out, ",")
}

// clusterStatus asks one member for its replication state.
func (d *Deployment) clusterStatus(i int) (*harmony.ReplicaStatus, error) {
	if d.pid(i) == 0 {
		return nil, errors.New("member is down")
	}
	c, err := harmony.DialWith(d.members[i].client, harmony.DialConfig{Timeout: time.Second})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.ClusterStatus()
}

// waitLeader polls until a live member other than skip reports itself leader
// and returns its index.
func (d *Deployment) waitLeader(timeout time.Duration, skip int) (int, error) {
	deadline := time.Now().Add(timeout)
	for {
		for i := range d.members {
			if i == skip {
				continue
			}
			if st, err := d.clusterStatus(i); err == nil && st.Role == "leader" {
				return i, nil
			}
		}
		if time.Now().After(deadline) {
			return 0, errors.New("no member became leader")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// leaderStatus returns the leader (not skip) and its replication state. A
// leader that steps down, or is too busy to answer within the dial timeout,
// between the two questions is asked again.
func (d *Deployment) leaderStatus(timeout time.Duration, skip int) (int, *harmony.ReplicaStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		leader, err := d.waitLeader(time.Until(deadline), skip)
		if err != nil {
			return 0, nil, err
		}
		st, err := d.clusterStatus(leader)
		if err == nil && st.Role == "leader" {
			return leader, st, nil
		}
		if time.Now().After(deadline) {
			return 0, nil, errors.New("no member stayed leader")
		}
	}
}

// CPUSeconds is user+system time of every child so far, killed ones included.
func (d *Deployment) CPUSeconds() (float64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0.0
	for _, m := range d.members {
		total += m.retiredCPU
		if m.cmd == nil {
			continue
		}
		cpu, err := procCPUSeconds(m.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += cpu
	}
	return total, nil
}

// RSSMB sums the children's peak resident set sizes.
func (d *Deployment) RSSMB() (float64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0.0
	for _, m := range d.members {
		if m.cmd == nil {
			continue
		}
		mb, err := procPeakRSSMB(m.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// clockTick is the kernel's USER_HZ, fixed at 100 on Linux for every
// architecture Go supports.
const clockTick = 100

// procCPUSeconds reads utime+stime from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// procExited reports whether the child has ended and waits to be reaped: its
// state, the field after the command name, reads Z.
func procExited(pid int) bool {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	rest := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	return len(rest) > 0 && rest[0] == "Z"
}

// parseStatCPU extracts fields 14 and 15 (utime, stime). The command name in
// field 2 may hold spaces and parentheses, so fields are counted from the
// last ')'.
func parseStatCPU(data []byte) (float64, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	fields := strings.Fields(string(data[end+1:]))
	if len(fields) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / clockTick, nil
}

// procPeakRSSMB reads VmHWM from /proc/<pid>/status.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

func parseVmHWM(data []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("proc status: VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// tailFile returns the end of a log for error messages.
func tailFile(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return strings.TrimSpace(string(data))
}
