package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Keeping the CPUs awake. When the guest has nothing to run its virtual
// CPUs halt, the host parks them, and the next wake-up pays whatever the
// host's resume latency is at that moment. At light load every hop of a
// packet is such a wake-up: paced-mix's hit p50 read anywhere from 81 to
// 151 µs with identical code, following the host and not the program. So
// for the length of a run one child process per CPU spins at SCHED_IDLE
// priority, which the kernel runs only when nothing else wants that CPU:
// it takes no time from the program and, being another process, none of
// its CPU time lands in cpu_us_per_pkt. It is what booting with idle=poll
// does on real hardware.

// spinArg is the hidden first argument that turns the program into a
// spinner: bench spinArg CPU.
const spinArg = "-spin-on-cpu"

const schedIdle = 5 // SCHED_IDLE, from <linux/sched.h>

// cpuSet is a cpu_set_t large enough for 1024 CPUs.
type cpuSet [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var set cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < len(set)*64; i++ {
		if set[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// spin is the child: it pins itself to one CPU, drops to idle priority,
// says so on standard output and burns cycles until its parent is gone.
func spin(cpu int) error {
	runtime.LockOSThread()
	var set cpuSet
	set[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	var param struct{ priority int32 } // struct sched_param; 0 for SCHED_IDLE
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("sched_setscheduler: %w", errno)
	}
	fmt.Println("spinning")
	// A parent that died without killing us leaves us to another parent;
	// one getppid a millisecond or so notices.
	for parent := os.Getppid(); os.Getppid() == parent; {
		for i := 0; i < 1<<20; i++ {
			sink++
		}
	}
	return nil
}

// keepAwake starts one spinner per CPU and returns once each has reported
// that it is spinning at idle priority. stop kills them and waits for each
// to end.
func keepAwake() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	var children []*exec.Cmd
	stop = func() {
		for _, c := range children {
			_ = c.Process.Kill() // fails only if it already ended
			_ = c.Wait()         // "signal: killed" is the expected outcome
		}
	}
	for _, cpu := range cpus {
		c := exec.Command(exe, spinArg, strconv.Itoa(cpu))
		c.Stderr = os.Stderr
		out, err := c.StdoutPipe()
		if err == nil {
			err = c.Start()
		}
		if err != nil {
			stop()
			return nil, fmt.Errorf("start spinner: %w", err)
		}
		children = append(children, c)
		if line, err := bufio.NewReader(out).ReadString('\n'); err != nil {
			stop()
			return nil, fmt.Errorf("spinner on cpu %d did not start (%q): %w", cpu, line, err)
		}
	}
	return stop, nil
}
