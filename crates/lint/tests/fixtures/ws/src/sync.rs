//! Fixture enforcement point: raw lock primitives are sanctioned here, and
//! the wait-side LockClass -> Phase map lives here.

pub struct L {
    raw: RawMutex,
}

impl L {
    pub fn lock(&self) {
        self.raw.lock();
    }

    pub fn unlock(&self) {
        self.raw.unlock();
    }

    fn wait_phase(class: LockClass) -> Phase {
        match class {
            LockClass::Succ => Phase::SuccLockWait,
            LockClass::Tree => Phase::TreeLockWait,
        }
    }
}
