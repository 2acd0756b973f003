//! Seeded lock/atomic violations. Never compiled — only lexed by lo-lint;
//! the numbered comments name the finding each site must produce.

use crate::fail::FailPoint;

pub struct U {
    // seed: raw-lock (Mutex type outside the enforcement point)
    state: Mutex<u32>,
}

impl U {
    // seed: atomic-policy + seqcst (mark stores must be Release)
    fn bad_store(&self, n: &N) {
        n.mark.store(true, Ordering::SeqCst);
    }

    // seed: atomic-policy (no RMW ordering is allowed for `mark`)
    fn bad_swap(&self, n: &N) -> bool {
        n.mark.swap(true, Ordering::AcqRel)
    }

    // ok: Acquire loads are in the policy
    fn good_load(&self, n: &N) -> bool {
        n.mark.load(Ordering::Acquire)
    }

    // seed: raw-lock (`.lock()` call outside the enforcement point)
    fn bad_raw(&self) -> u32 {
        *self.state.lock()
    }

    // seed: R1 (blocking succ acquisition while a tree lock is held)
    fn r1_bad(&self, t: &N, u: &N) {
        t.lock_tree();
        u.lock_succ();
        u.unlock_succ();
        t.unlock_tree();
    }

    // seed: R2 (succ-in-succ with no [[locks.nested_succ]] pin)
    fn r2_bad(&self, p: &N, q: &N) {
        p.lock_succ();
        q.lock_succ();
        q.unlock_succ();
        p.unlock_succ();
    }

    // ok: the same nesting, pinned by the manifest; also fires win-a's
    // failpoint and its SuccLockHold probe
    fn remove_ok(&self, p: &N, s: &N) {
        p.lock_succ();
        s.lock_succ();
        fp::fail_at(FailPoint::WinA);
        let _span = span(Phase::SuccLockHold);
        s.unlock_succ();
        p.unlock_succ();
    }

    // seed: R3 (blocking tree-in-tree; must try_lock_tree + restart)
    fn r3_bad(&self, a: &N, b: &N) {
        a.lock_tree();
        b.lock_tree();
        b.unlock_tree();
        a.unlock_tree();
    }

    // ok: the restart idiom — the diverging block's unlock must not leak
    // into the fall-through held-set (divergence-aware simulation)
    fn restart_ok(&self, p: &N, c: &N) {
        loop {
            p.lock_succ();
            if !c.try_lock_tree() {
                p.unlock_succ();
                continue;
            }
            fp::fail_at(FailPoint::WinC);
            c.unlock_tree();
            p.unlock_succ();
            break;
        }
    }
}
