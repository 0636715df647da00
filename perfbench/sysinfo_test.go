package main

import (
	"strings"
	"testing"
)

const snmpSample = `Ip: Forwarding DefaultTTL InReceives
Ip: 1 64 123
Tcp: RtoAlgorithm RtoMin RtoMax MaxConn ActiveOpens
Tcp: 1 200 120000 -1 42
Udp: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors InCsumErrors IgnoredMulti MemErrors
Udp: 19549021 180 6779 19555984 6779 0 0 0 0
UdpLite: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors InCsumErrors IgnoredMulti MemErrors
UdpLite: 0 0 0 0 0 0 0 0 0
`

func TestParseSNMP(t *testing.T) {
	tab, err := parseSNMP(strings.NewReader(snmpSample))
	if err != nil {
		t.Fatal(err)
	}
	if got := tab["Udp"]["RcvbufErrors"]; got != 6779 {
		t.Fatalf("Udp RcvbufErrors = %d, want 6779", got)
	}
	if got := tab["UdpLite"]["RcvbufErrors"]; got != 0 {
		t.Fatalf("UdpLite must not shadow Udp: %d", got)
	}
	if got := tab["Tcp"]["MaxConn"]; got != 1 {
		t.Fatalf("signed MaxConn = %d, want its magnitude 1", got)
	}
	if got := tab["Ip"]["InReceives"]; got != 123 {
		t.Fatalf("Ip InReceives = %d", got)
	}
}

func TestParseSNMPRejectsMalformed(t *testing.T) {
	for name, text := range map[string]string{
		"short row": "Udp: InDatagrams RcvbufErrors\nUdp: 1\n",
		"not int":   "Udp: InDatagrams RcvbufErrors\nUdp: 1 x\n",
	} {
		if _, err := parseSNMP(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

// The live file parses on Linux and carries the counter the benchmark
// reads.
func TestUDPRcvbufErrorsLive(t *testing.T) {
	if _, err := udpRcvbufErrors(); err != nil {
		t.Skip("no /proc/net/snmp:", err)
	}
}

func TestParseProm(t *testing.T) {
	m := parseProm(`# HELP sfd_x help
# TYPE sfd_x counter
sfd_x 12
sfd_h_bucket{le="+Inf"} 3
sfd_h_sum 0.25
sfd_h_count 3
sfd_g{peer="a b"} 1.5e-06
`)
	for k, want := range map[string]float64{
		"sfd_x": 12, `sfd_h_bucket{le="+Inf"}`: 3, "sfd_h_sum": 0.25, "sfd_h_count": 3, `sfd_g{peer="a b"}`: 1.5e-6,
	} {
		if got, ok := m[k]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, want)
		}
	}
}
