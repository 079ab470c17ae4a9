package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := []byte("4242 (harmonyd (v2) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 50 0 0 20 0 9 0 100 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	got, err := parseStatCPU(stat)
	if err != nil || got != 3.0 {
		t.Errorf("parseStatCPU = %v, %v; want 3 s (250+50 ticks)", got, err)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("parseStatCPU accepted garbage")
	}
	if _, err := parseStatCPU([]byte("1 (x) S 1 2")); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := []byte("Name:\tharmonyd\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n")
	got, err := parseVmHWM(status)
	if err != nil || got != 20 {
		t.Errorf("parseVmHWM = %v, %v; want 20 MB", got, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

func TestProcReadersOnThisProcess(t *testing.T) {
	if _, err := procCPUSeconds(os.Getpid()); err != nil {
		t.Errorf("procCPUSeconds(self): %v", err)
	}
	if mb, err := procPeakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("procPeakRSSMB(self) = %v, %v", mb, err)
	}
}

func TestFsTypeFromMounts(t *testing.T) {
	mounts := []byte("overlay / overlay rw 0 0\nproc /proc proc rw 0 0\n/dev/vdb /root/scratch ext4 rw 0 0\ntmpfs /root/scratch/tmp tmpfs rw 0 0\n")
	cases := map[string]string{
		"/root/repo/.bench_build": "overlay",
		"/root/scratch/run":       "ext4",
		"/root/scratch/tmp/x":     "tmpfs",
		"/root/scratchy":          "overlay",
	}
	for path, want := range cases {
		if got := fsTypeFromMounts(mounts, path); got != want {
			t.Errorf("fsTypeFromMounts(%s) = %s, want %s", path, got, want)
		}
	}
}
