package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// parseSNMP parses the /proc/net/snmp layout: for each protocol a header
// line of field names and a value line, both prefixed "Proto:".
func parseSNMP(r io.Reader) (map[string]map[string]uint64, error) {
	out := make(map[string]map[string]uint64)
	sc := bufio.NewScanner(r)
	var header []string
	var proto string
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasSuffix(fields[0], ":") {
			continue
		}
		p := strings.TrimSuffix(fields[0], ":")
		if header == nil || p != proto {
			header, proto = fields[1:], p
			continue
		}
		if len(fields)-1 != len(header) {
			return nil, fmt.Errorf("snmp: %s has %d values for %d fields", p, len(fields)-1, len(header))
		}
		row := make(map[string]uint64, len(header))
		for i, name := range header {
			// Some counters (e.g. Tcp MaxConn) are signed; keep the
			// magnitude rather than failing the whole table.
			v, err := strconv.ParseInt(fields[i+1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("snmp: %s %s: %w", p, name, err)
			}
			if v < 0 {
				v = -v
			}
			row[name] = uint64(v)
		}
		out[p] = row
		header = nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// udpRcvbufErrors reads the kernel's count of UDP datagrams dropped
// because a socket receive buffer was full. The counter is per network
// namespace, so on a quiet loopback it is this benchmark's own drops.
func udpRcvbufErrors() (uint64, error) {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	t, err := parseSNMP(f)
	if err != nil {
		return 0, err
	}
	v, ok := t["Udp"]["RcvbufErrors"]
	if !ok {
		return 0, fmt.Errorf("snmp: no Udp RcvbufErrors")
	}
	return v, nil
}

// effectiveRcvbuf opens a throwaway loopback socket, asks for request
// bytes of receive buffer exactly as the monitor's socket does, and
// returns what the kernel granted (it caps at net.core.rmem_max and
// doubles for bookkeeping).
func effectiveRcvbuf(request int) (int, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := conn.SetReadBuffer(request); err != nil {
		return 0, err
	}
	raw, err := conn.SyscallConn()
	if err != nil {
		return 0, err
	}
	var got int
	var gerr error
	if err := raw.Control(func(fd uintptr) {
		got, gerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		return 0, err
	}
	return got, gerr
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// environment is stamped on every result.
type environment struct {
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	CPU           string `json:"cpu_model"`
	Kernel        string `json:"kernel"`
	RmemMax       string `json:"net_core_rmem_max"`
	RcvbufRequest int    `json:"so_rcvbuf_requested"`
	RcvbufGranted int    `json:"so_rcvbuf_effective"`
	Seed          int64  `json:"seed"`
	Loopback      bool   `json:"loopback_only"`
}

func stampEnvironment(seed int64, rcvbuf int) environment {
	granted, err := effectiveRcvbuf(rcvbuf)
	if err != nil {
		granted = -1
	}
	return environment{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CPU:           cpuModel(),
		Kernel:        readTrimmed("/proc/sys/kernel/osrelease"),
		RmemMax:       readTrimmed("/proc/sys/net/core/rmem_max"),
		RcvbufRequest: rcvbuf,
		RcvbufGranted: granted,
		Seed:          seed,
		Loopback:      true,
	}
}
