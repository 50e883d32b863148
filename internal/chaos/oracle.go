package chaos

import (
	"fmt"

	"kloc/internal/cluster"
)

// The oracle ids.
const (
	// OracleRunError: the run itself failed with a non-errno error (a
	// harness bug escaped the modeled-fault vocabulary).
	OracleRunError = "run.error"
	// OracleOutstanding: a balancer or machine gauge (outstanding,
	// per-machine slots, busy workers, queues) did not return to zero.
	OracleOutstanding = "conservation.outstanding"
	// OracleTerminate: some admitted request never terminated, or
	// terminated more than once.
	OracleTerminate = "conservation.terminate"
	// OracleBreaker: a breaker was left holding half-open probe slots
	// with nothing in flight (the probe-leak class: once the budget is
	// exhausted the machine drops out of routing forever).
	OracleBreaker = "conservation.breaker"
	// OracleDrain: in-flight work never drained inside the settle
	// bound.
	OracleDrain = "liveness.drain"
	// OracleReadmit: an ejected or degraded machine was never restored
	// to the routable set once faults stopped firing.
	OracleReadmit = "liveness.readmit"
	// OracleJournal: the FS crash/replay cycle violated journal
	// consistency.
	OracleJournal = "crash.journal"
	// OracleSanitizer: the runtime sanitizer found double frees,
	// use-after-free accesses, or leaks.
	OracleSanitizer = "crash.sanitizer"
	// OracleDeterminism: the same seed and schedule produced different
	// traces (checked by re-execution in the campaign loop, not via
	// Check).
	OracleDeterminism = "determinism.trace"
)

// Oracle is one invariant check over a run's outcome. Check returns
// the violation detail, or "" when the invariant held.
type Oracle struct {
	ID    string
	Check func(*Outcome) string
}

// Registry returns the oracle set for a target, in checking order
// (the first violation is the one reported and minimized against).
func Registry(target string) []Oracle {
	oracles := []Oracle{{
		ID: OracleRunError,
		Check: func(o *Outcome) string {
			if o.RunErr != nil {
				return o.RunErr.Error()
			}
			return ""
		},
	}}
	if target == TargetMachine {
		return append(oracles,
			Oracle{
				ID:    OracleJournal,
				Check: checkJournal,
			},
			Oracle{
				ID:    OracleSanitizer,
				Check: checkSanitizer,
			})
	}
	return append(oracles,
		Oracle{
			ID:    OracleDrain,
			Check: checkDrain,
		},
		Oracle{
			ID:    OracleReadmit,
			Check: checkReadmit,
		},
		Oracle{
			ID:    OracleOutstanding,
			Check: checkOutstanding,
		},
		Oracle{
			ID:    OracleTerminate,
			Check: checkTerminate,
		},
		Oracle{
			ID:    OracleBreaker,
			Check: checkBreaker,
		})
}

// check runs the registry in order and returns the first violation.
func check(oracles []Oracle, out *Outcome) *Violation {
	for _, o := range oracles {
		if detail := o.Check(out); detail != "" {
			return &Violation{Oracle: o.ID, Detail: detail}
		}
	}
	return nil
}

func checkDrain(o *Outcome) string {
	if o.Intro == nil || o.Settled {
		return ""
	}
	in := o.Intro
	if in.Outstanding != 0 {
		return fmt.Sprintf("%d requests still outstanding %v after the run", in.Outstanding, in.Now)
	}
	for i := range in.Busy {
		if in.Busy[i] != 0 || in.Queued[i] != 0 || in.Serving[i] != 0 {
			return fmt.Sprintf("machine %d still has busy=%d queued=%d serving=%d after the settle bound",
				i, in.Busy[i], in.Queued[i], in.Serving[i])
		}
	}
	return ""
}

func checkReadmit(o *Outcome) string {
	if o.Intro == nil || o.Settled {
		return ""
	}
	in := o.Intro
	for i := range in.Up {
		if !in.Up[i] {
			return fmt.Sprintf("machine %d never restarted", i)
		}
		if !in.Healthy[i] {
			return fmt.Sprintf("machine %d never re-admitted by the health checker", i)
		}
		if in.Degraded[i] {
			return fmt.Sprintf("machine %d never recovered from degradation", i)
		}
	}
	return ""
}

func checkOutstanding(o *Outcome) string {
	if o.Intro == nil {
		return ""
	}
	in := o.Intro
	if in.Outstanding != 0 {
		return fmt.Sprintf("outstanding gauge is %d after drain", in.Outstanding)
	}
	for i, n := range in.Out {
		if n != 0 {
			return fmt.Sprintf("machine %d's balancer slot gauge is %d after drain (routing weight skewed for good)", i, n)
		}
	}
	for i := range in.Busy {
		if in.Busy[i] != 0 || in.Queued[i] != 0 || in.Serving[i] != 0 {
			return fmt.Sprintf("machine %d holds busy=%d queued=%d serving=%d after drain",
				i, in.Busy[i], in.Queued[i], in.Serving[i])
		}
	}
	return ""
}

func checkTerminate(o *Outcome) string {
	if o.Intro == nil {
		return ""
	}
	if o.Intro.AdmittedAll != o.Intro.ResolvedAll {
		return fmt.Sprintf("%d requests admitted but %d resolved", o.Intro.AdmittedAll, o.Intro.ResolvedAll)
	}
	return ""
}

func checkBreaker(o *Outcome) string {
	if o.Intro == nil {
		return ""
	}
	in := o.Intro
	for i, probes := range in.BreakerProbes {
		if probes == 0 {
			continue
		}
		detail := fmt.Sprintf("machine %d's breaker holds %d probe slots (%s) with nothing in flight",
			i, probes, in.BreakerState[i])
		if probes >= cluster.BreakerProbeBudget {
			detail += " — budget exhausted, machine unroutable forever"
		}
		return detail
	}
	return ""
}

func checkJournal(o *Outcome) string {
	if o.Result == nil {
		return ""
	}
	return o.Result.CrashViolation
}

func checkSanitizer(o *Outcome) string {
	if o.Result == nil || o.Result.Sanitize.Clean() {
		return ""
	}
	r := o.Result.Sanitize
	return fmt.Sprintf("%d findings, %d leaked objects (%d bytes)",
		r.TotalFindings, r.TotalLeaks, r.LeakBytes)
}
