package bench

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy: a thread under it runs only when
// no normal thread on its CPU wants to, and any normal thread that wakes
// preempts it at once. Any process may move its own threads into it.
const schedIdle = 5

// lowerPriority moves every thread of this process to SCHED_IDLE. On Linux
// the policy belongs to a thread and a new thread inherits its creator's,
// so the threads are rescanned until a pass finds none it had not already
// moved: from then on every thread the runtime starts is a child of an idle
// one. Failures leave the default policy, which only costs speed.
func lowerPriority() {
	var param struct{ priority int32 }
	done := map[int]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		fresh := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || done[tid] {
				continue
			}
			done[tid], fresh = true, true
			syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedIdle, uintptr(unsafe.Pointer(&param)))
		}
		if !fresh {
			return
		}
	}
}
