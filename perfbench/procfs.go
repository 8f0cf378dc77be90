package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat
// and /proc/stat. It is 100 on every Linux ABI Go supports.
const clockTicks = 100

// procCPU returns the user plus system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU reads utime and stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat. The command name in field 2 may hold
// spaces and parentheses, so fields are counted from its closing one.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: malformed stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: stat line has %d fields after the command", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: stat cpu field: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSSMB returns a process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// parseVmHWM reads the VmHWM line of /proc/<pid>/status, in MiB.
func parseVmHWM(b []byte) (float64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("procfs: no VmHWM line")
}

// cpuTimes is the host-wide CPU time split of /proc/stat's "cpu" line.
type cpuTimes struct {
	total, steal uint64
}

func hostCPU() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	return parseProcStat(b)
}

// parseProcStat reads the aggregate "cpu" line: user nice system idle
// iowait irq softirq steal. Guest time is already inside user and nice,
// so it is not added again.
func parseProcStat(b []byte) (cpuTimes, error) {
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("procfs: malformed /proc/stat cpu line %q", line)
	}
	var t cpuTimes
	for i, s := range f[1:9] {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("procfs: /proc/stat: %w", err)
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two readings.
func stealShare(from, to cpuTimes) float64 {
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// loadAvg1 returns the one-minute load average.
func loadAvg1() (float64, error) {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0, fmt.Errorf("procfs: empty /proc/loadavg")
	}
	return strconv.ParseFloat(f[0], 64)
}
