// Package testport hands tests loopback addresses for servers they start
// later. The ports lie below the kernel's ephemeral range: a port found by
// binding to port 0 lies inside it, and before the server binds it an
// outgoing connection, from this test or another package's, can be given the
// same port, failing the bind with "address already in use".
package testport

import (
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var ports struct {
	sync.Mutex
	handed map[int]bool
}

// Addr returns a free 127.0.0.1 address below the ephemeral range, never the
// same one twice in one test binary.
func Addr(t testing.TB) string {
	t.Helper()
	ports.Lock()
	defer ports.Unlock()
	if ports.handed == nil {
		ports.handed = make(map[int]bool)
	}
	const floor = 10000
	ceil := 32768 // Linux's default ephemeral floor
	if data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(data)); len(f) == 2 {
			if lo, err := strconv.Atoi(f[0]); err == nil {
				ceil = lo
			}
		}
	}
	if ceil <= floor {
		ceil = 65536 // nothing below the ephemeral range: any free port
	}
	var lastErr error
	for try := 0; try < 200; try++ {
		p := floor + rand.Intn(ceil-floor)
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
		return ln.Addr().String()
	}
	t.Fatalf("testport: no free loopback port: %v", lastErr)
	return ""
}
