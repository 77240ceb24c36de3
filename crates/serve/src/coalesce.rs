//! Request coalescing: merge identical in-flight calls.
//!
//! Concurrent online queries from the same start node with the same hop
//! budget and pattern ship the same `EXPLORE` request — same destination
//! machine, same protocol, same bytes — at the same time. The
//! [`Coalescer`] keys in-flight calls by `(machine, proto, payload)`; the
//! first submitter (the *leader*) actually issues the call, later
//! identical submitters with no more budget than it had (*followers*)
//! block on the leader's flight and share its reply. Under load this turns
//! N duplicate queries into one.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use trinity_net::{
    deadline_expired, remaining_us, Endpoint, FrameBuf, MachineId, NetError, ProtoId,
};
use trinity_obs::Counter;

use crate::CallHook;

type Key = (MachineId, ProtoId, Vec<u8>);

#[derive(Default)]
struct Flight {
    /// The leader's budget when it issued the call ([`remaining_us`]).
    budget: u64,
    done: Mutex<Option<trinity_net::Result<FrameBuf>>>,
    cv: Condvar,
}

/// Deduplicates identical in-flight calls through one endpoint.
pub struct Coalescer {
    endpoint: Arc<Endpoint>,
    inflight: Mutex<HashMap<Key, Arc<Flight>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("machine", &self.endpoint.machine())
            .field("inflight", &self.inflight.lock().len())
            .finish()
    }
}

impl Coalescer {
    /// A coalescer issuing through `endpoint`. Metrics land on the
    /// endpoint's machine scope as `serve.coalesce.*`.
    pub fn new(endpoint: Arc<Endpoint>) -> Arc<Self> {
        let obs = endpoint.obs();
        let hits = obs.counter("serve.coalesce.hits");
        let misses = obs.counter("serve.coalesce.misses");
        Arc::new(Coalescer {
            endpoint,
            inflight: Mutex::new(HashMap::new()),
            hits,
            misses,
        })
    }

    /// Call `dst`/`proto` with `payload`, sharing the reply of an identical
    /// call in flight whose leader had at least this call's budget, so a
    /// shared answer is never cut shorter than this call's own. Otherwise
    /// lead: go upstream under the calling thread's deadline, remove the
    /// flight, then publish. A follower waits no longer than its own
    /// budget, and issues the call itself when its leader ran out of budget
    /// (`DeadlineExceeded`) but it has not. Followers share the leader's
    /// reply frame by refcount: one upstream call *and* one buffer.
    pub fn call(
        &self,
        dst: MachineId,
        proto: ProtoId,
        payload: &[u8],
    ) -> trinity_net::Result<FrameBuf> {
        let key: Key = (dst, proto, payload.to_vec());
        let budget = remaining_us();
        let mut inflight = self.inflight.lock();
        if let Some(flight) = inflight.get(&key).filter(|f| f.budget >= budget).cloned() {
            drop(inflight);
            self.hits.inc();
            return self.follow(&flight, dst, proto, payload);
        }
        // A flight whose leader had less budget is replaced, not joined.
        let flight = Arc::new(Flight {
            budget,
            ..Flight::default()
        });
        inflight.insert(key, Arc::clone(&flight));
        drop(inflight);
        self.misses.inc();
        let result = self.endpoint.call(dst, proto, payload);
        // Remove the flight BEFORE publishing the result: a submitter
        // arriving after this point starts a fresh call instead of
        // reading a stale reply.
        self.inflight.lock().retain(|_, f| !Arc::ptr_eq(f, &flight));
        *flight.done.lock() = Some(result.clone());
        flight.cv.notify_all();
        result
    }

    /// The published reply of another caller's `flight`, waiting no longer
    /// than the calling thread's own budget.
    fn follow(
        &self,
        flight: &Flight,
        dst: MachineId,
        proto: ProtoId,
        payload: &[u8],
    ) -> trinity_net::Result<FrameBuf> {
        let mut done = flight.done.lock();
        let result = loop {
            if let Some(result) = done.as_ref() {
                break result.clone();
            }
            let budget = remaining_us();
            if budget == 0 {
                return Err(NetError::DeadlineExceeded(dst, proto));
            }
            let wait = Duration::from_micros(budget.min(u64::from(u32::MAX)));
            if flight.cv.wait_for(&mut done, wait).timed_out() && done.is_none() {
                return Err(NetError::DeadlineExceeded(dst, proto));
            }
        };
        drop(done);
        match result {
            // The leader's budget ran out, not this caller's.
            Err(NetError::DeadlineExceeded(..)) if !deadline_expired() => {
                self.misses.inc();
                self.endpoint.call(dst, proto, payload)
            }
            result => result,
        }
    }

    /// This coalescer as an exploration [`CallHook`], pluggable into
    /// [`trinity_core::ExploreOptions::call`].
    pub fn hook(self: &Arc<Self>) -> CallHook {
        let this = Arc::clone(self);
        Arc::new(move |dst, proto, payload| this.call(dst, proto, payload))
    }

    /// Total calls answered from an in-flight leader.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Total calls that went upstream.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use trinity_net::{DeadlineGuard, Fabric, FabricConfig};

    const SLOW_ECHO: ProtoId = 80;

    #[test]
    fn identical_inflight_calls_merge() {
        let fabric = Fabric::new(FabricConfig::with_machines(2));
        let a = fabric.endpoint(MachineId(0));
        let b = fabric.endpoint(MachineId(1));
        let served = Arc::new(AtomicU64::new(0));
        let served2 = Arc::clone(&served);
        b.register(SLOW_ECHO, move |_src, p| {
            served2.fetch_add(1, Ordering::SeqCst);
            // Slow enough that all submitters overlap.
            std::thread::sleep(Duration::from_millis(60));
            Some(p.to_vec())
        });
        let co = Coalescer::new(Arc::clone(&a));
        let joins: Vec<_> = (0..8)
            .map(|_| {
                let co = Arc::clone(&co);
                std::thread::spawn(move || co.call(MachineId(1), SLOW_ECHO, b"same").unwrap())
            })
            .collect();
        for j in joins {
            assert_eq!(j.join().unwrap(), b"same");
        }
        assert_eq!(
            served.load(Ordering::SeqCst),
            1,
            "one upstream call served all 8 submitters"
        );
        assert_eq!(co.misses(), 1);
        assert_eq!(co.hits(), 7);
        // Distinct payloads do not merge.
        co.call(MachineId(1), SLOW_ECHO, b"other").unwrap();
        assert_eq!(served.load(Ordering::SeqCst), 2);
        fabric.shutdown();
    }

    #[test]
    fn a_call_with_more_budget_than_the_leader_leads_its_own() {
        let fabric = Fabric::new(FabricConfig::with_machines(2));
        fabric
            .endpoint(MachineId(1))
            .register(SLOW_ECHO, |_src, p| {
                std::thread::sleep(Duration::from_millis(50));
                Some(p.to_vec())
            });
        let co = Coalescer::new(fabric.endpoint(MachineId(0)));
        let leader = std::thread::spawn({
            let co = Arc::clone(&co);
            move || {
                let _budget = DeadlineGuard::enter_for(Duration::from_millis(2));
                co.call(MachineId(1), SLOW_ECHO, b"same")
            }
        });
        while co.inflight.lock().is_empty() && !leader.is_finished() {
            std::hint::spin_loop();
        }
        // The leader gives up after 2 ms; this call has 5 s and does not
        // wait on it.
        let own = {
            let _budget = DeadlineGuard::enter_for(Duration::from_secs(5));
            co.call(MachineId(1), SLOW_ECHO, b"same")
        };
        let led = leader.join().unwrap();
        assert!(
            matches!(led, Err(NetError::DeadlineExceeded(..))),
            "{led:?}"
        );
        assert_eq!(own.as_deref(), Ok(&b"same"[..]));
        assert_eq!((co.hits(), co.misses()), (0, 2));
        fabric.shutdown();
    }

    #[test]
    fn a_follower_with_budget_left_is_not_failed_by_its_leaders_deadline() {
        let fabric = Fabric::new(FabricConfig::with_machines(2));
        fabric
            .endpoint(MachineId(1))
            .register(SLOW_ECHO, |_src, p| Some(p.to_vec()));
        let co = Coalescer::new(fabric.endpoint(MachineId(0)));
        // A flight whose leader's budget lapsed upstream.
        let flight = Flight {
            done: Mutex::new(Some(Err(NetError::DeadlineExceeded(
                MachineId(1),
                SLOW_ECHO,
            )))),
            ..Flight::default()
        };
        let _budget = DeadlineGuard::enter_for(Duration::from_secs(5));
        let followed = co.follow(&flight, MachineId(1), SLOW_ECHO, b"same");
        assert_eq!(followed.as_deref(), Ok(&b"same"[..]));
        assert_eq!(co.misses(), 1, "the follower issued the call itself");
        fabric.shutdown();
    }

    #[test]
    fn flight_is_removed_after_completion() {
        let fabric = Fabric::new(FabricConfig::with_machines(2));
        let a = fabric.endpoint(MachineId(0));
        let b = fabric.endpoint(MachineId(1));
        let served = Arc::new(AtomicU64::new(0));
        let served2 = Arc::clone(&served);
        b.register(SLOW_ECHO, move |_src, p| {
            served2.fetch_add(1, Ordering::SeqCst);
            Some(p.to_vec())
        });
        let co = Coalescer::new(Arc::clone(&a));
        co.call(MachineId(1), SLOW_ECHO, b"x").unwrap();
        co.call(MachineId(1), SLOW_ECHO, b"x").unwrap();
        // Sequential identical calls both go upstream: coalescing merges
        // *concurrent* duplicates, never serves stale replies.
        assert_eq!(served.load(Ordering::SeqCst), 2);
        fabric.shutdown();
    }
}
