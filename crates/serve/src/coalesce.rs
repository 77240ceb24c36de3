//! Request coalescing: merge identical in-flight fan-out calls.
//!
//! Concurrent queries exploring overlapping neighborhoods issue the same
//! `EXPAND` request — same destination machine, same protocol, same
//! frontier batch — at the same time. The [`Coalescer`] keys in-flight
//! calls by `(machine, proto, payload)`; the first submitter (the
//! *leader*) actually issues the call, later identical submitters
//! (*followers*) block on the leader's flight and share its reply. Under
//! load this turns N duplicate upstream requests into one. A whole
//! fan-out round goes through [`Coalescer::call_many`]: its leaders
//! share one [`Endpoint::call_many`], on the calling thread.

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

    /// Call `dst`/`proto` with `payload`, sharing the reply with any
    /// identical call already in flight: [`Coalescer::call_many`] of one.
    pub fn call(
        &self,
        dst: MachineId,
        proto: ProtoId,
        payload: &[u8],
    ) -> trinity_net::Result<FrameBuf> {
        let mut results = self.call_many(&[(dst, proto, payload)]);
        results.pop().expect("one result per request")
    }

    /// A fan-out round, one result per request in input order. A request
    /// identical to one already in flight — another query's, or an earlier
    /// one of this round — follows that flight; the others lead, and go
    /// upstream together in one [`Endpoint::call_many`] under the calling
    /// thread's deadline. Every leader publishes before any follower
    /// waits, so a round never waits on itself. A follower waits no longer
    /// than its own budget, and when its leader ran out of budget
    /// (`DeadlineExceeded`) while its own is still open, it issues the
    /// call itself. Followers share the leader's reply frame by refcount —
    /// N coalesced submitters cost one upstream call *and* one buffer.
    pub fn call_many(
        &self,
        requests: &[(MachineId, ProtoId, &[u8])],
    ) -> Vec<trinity_net::Result<FrameBuf>> {
        // Each request's flight, and its key when this call leads it.
        let mut leaders = Vec::new();
        let flights: Vec<(Arc<Flight>, Option<Key>)> = {
            let mut inflight = self.inflight.lock();
            requests
                .iter()
                .map(|&(dst, proto, payload)| {
                    let key: Key = (dst, proto, payload.to_vec());
                    if let Some(f) = inflight.get(&key) {
                        return (Arc::clone(f), None);
                    }
                    let f = Arc::new(Flight::default());
                    inflight.insert(key.clone(), Arc::clone(&f));
                    leaders.push((dst, proto, payload));
                    (f, Some(key))
                })
                .collect()
        };
        self.misses.add(leaders.len() as u64);
        self.hits.add((requests.len() - leaders.len()) as u64);
        let mut upstream = self.endpoint.call_many(&leaders).into_iter();
        for (flight, key) in &flights {
            let Some(key) = key else { continue };
            let result = upstream.next().expect("call_many answers every request");
            // Remove the flight BEFORE publishing the result: a submitter
            // arriving after this point starts a fresh call instead of
            // reading a stale reply.
            self.inflight.lock().remove(key);
            *flight.done.lock() = Some(result);
            flight.cv.notify_all();
        }
        flights
            .iter()
            .zip(requests)
            .map(|((flight, key), &request)| self.await_flight(flight, key.is_some(), request))
            .collect()
    }

    /// The published reply of `flight`, waiting no longer than the calling
    /// thread's own budget.
    fn await_flight(
        &self,
        flight: &Flight,
        leader: bool,
        (dst, proto, payload): (MachineId, ProtoId, &[u8]),
    ) -> trinity_net::Result<FrameBuf> {
        let mut done = flight.done.lock();
        while done.is_none() {
            let budget = remaining_us();
            if budget == 0 {
                return Err(NetError::DeadlineExceeded(dst, proto));
            }
            let wait = Duration::from_micros(budget.min(u64::from(u32::MAX)));
            if flight.cv.wait_for(&mut done, wait).timed_out() && done.is_none() {
                return Err(NetError::DeadlineExceeded(dst, proto));
            }
        }
        let result = done.as_ref().expect("flight published").clone();
        drop(done);
        match result {
            // The leader's budget ran out, not this caller's.
            Err(NetError::DeadlineExceeded(..)) if !leader && !deadline_expired() => {
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
        Arc::new(move |requests| this.call_many(requests))
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
    fn a_round_sends_each_distinct_request_once() {
        let fabric = Fabric::new(FabricConfig::with_machines(3));
        let served = Arc::new(AtomicU64::new(0));
        for m in 1..3 {
            let served = Arc::clone(&served);
            fabric
                .endpoint(MachineId(m))
                .register(SLOW_ECHO, move |_src, p| {
                    served.fetch_add(1, Ordering::SeqCst);
                    Some(p.to_vec())
                });
        }
        let co = Coalescer::new(fabric.endpoint(MachineId(0)));
        let (x, y) = (&b"x"[..], &b"y"[..]);
        let got = co.call_many(&[
            (MachineId(1), SLOW_ECHO, x),
            (MachineId(2), SLOW_ECHO, x),
            (MachineId(1), SLOW_ECHO, y),
            (MachineId(1), SLOW_ECHO, x),
        ]);
        let got: Vec<Vec<u8>> = got.into_iter().map(|r| r.unwrap().into_vec()).collect();
        assert_eq!(got, [x, x, y, x]);
        assert_eq!(served.load(Ordering::SeqCst), 3, "the repeat rode along");
        assert_eq!((co.misses(), co.hits()), (3, 1));
        fabric.shutdown();
    }

    #[test]
    fn a_follower_with_budget_left_is_not_failed_by_its_leaders_deadline() {
        let fabric = Fabric::new(FabricConfig::with_machines(2));
        fabric
            .endpoint(MachineId(1))
            .register(SLOW_ECHO, |_src, p| {
                std::thread::sleep(Duration::from_millis(50));
                Some(p.to_vec())
            });
        let co = Coalescer::new(fabric.endpoint(MachineId(0)));
        // The leader gives up after 2 ms; the follower must catch its
        // flight inside that window, so try until it has.
        for _ in 0..100 {
            let hits = co.hits();
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
            let followed = {
                let _budget = DeadlineGuard::enter_for(Duration::from_secs(5));
                co.call(MachineId(1), SLOW_ECHO, b"same")
            };
            let led = leader.join().unwrap();
            assert!(
                matches!(led, Err(NetError::DeadlineExceeded(..))),
                "{led:?}"
            );
            if co.hits() > hits {
                // The leader ran out of time; this query did not.
                assert_eq!(followed.as_deref(), Ok(&b"same"[..]));
                fabric.shutdown();
                return;
            }
        }
        panic!("the follower never caught the leader's flight");
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
