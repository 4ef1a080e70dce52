//! Atomic snapshot publication: a single-writer, many-reader chain of
//! epoch-stamped snapshots.
//!
//! The chain is a forward-linked list of `Arc` nodes. The writer appends
//! with [`Publisher::publish`] (setting the previous tail's `OnceLock`
//! forward pointer — one atomic store). A [`Subscription`] pins some node;
//! [`Subscription::advance`] follows forward pointers to the newest
//! published node with plain atomic loads — readers never take a lock and
//! never block on the writer, and a reader's observed epoch sequence is
//! monotone by construction (the chain only grows forward).
//!
//! Memory reclamation falls out of `Arc`: a node is freed as soon as no
//! subscription pins it and its predecessor is gone. Readers that advance
//! promptly keep at most one superseded snapshot alive.

use dspc::shard::EpochSnapshot;
use std::sync::{Arc, OnceLock};

struct Node<S> {
    snap: EpochSnapshot<S>,
    next: OnceLock<Arc<Node<S>>>,
}

/// The writer's end of the snapshot chain. Owned by exactly one writer
/// (appending requires `&mut self`).
pub struct Publisher<S> {
    tail: Arc<Node<S>>,
}

impl<S> Publisher<S> {
    /// Starts a chain with `initial` as the epoch-0 snapshot.
    pub fn new(initial: S) -> Self {
        Publisher::starting_at(initial, 0)
    }

    /// Starts a chain with `initial` stamped as `epoch` — the recovery
    /// path: a server rebooting from a checkpoint resumes the epoch clock
    /// where the crashed instance left it, so readers attached before and
    /// after a crash observe one monotone epoch sequence.
    pub fn starting_at(initial: S, epoch: u64) -> Self {
        Publisher {
            tail: Arc::new(Node {
                snap: EpochSnapshot::new(epoch, initial),
                next: OnceLock::new(),
            }),
        }
    }

    /// The epoch of the newest published snapshot.
    pub fn epoch(&self) -> u64 {
        self.tail.snap.epoch()
    }

    /// Publishes `snap` as the next epoch and returns its stamp. Readers
    /// see it as soon as the forward pointer is set — one atomic store.
    pub fn publish(&mut self, snap: S) -> u64 {
        let epoch = self.tail.snap.epoch() + 1;
        let node = Arc::new(Node {
            snap: EpochSnapshot::new(epoch, snap),
            next: OnceLock::new(),
        });
        self.tail
            .next
            .set(Arc::clone(&node))
            .unwrap_or_else(|_| unreachable!("single writer owns the tail"));
        self.tail = node;
        epoch
    }

    /// A new subscription pinned at the newest published snapshot.
    pub fn subscribe(&self) -> Subscription<S> {
        Subscription {
            cur: Arc::clone(&self.tail),
        }
    }
}

/// A reader's pin into the snapshot chain. Cloning yields an independent
/// subscription pinned at the same node.
pub struct Subscription<S> {
    cur: Arc<Node<S>>,
}

impl<S> Clone for Subscription<S> {
    fn clone(&self) -> Self {
        Subscription {
            cur: Arc::clone(&self.cur),
        }
    }
}

impl<S> Subscription<S> {
    /// The currently pinned snapshot.
    #[inline]
    pub fn snapshot(&self) -> &EpochSnapshot<S> {
        &self.cur.snap
    }

    /// The pinned snapshot's epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.cur.snap.epoch()
    }

    /// Whether a newer snapshot has been published past the pinned one
    /// (one atomic load).
    #[inline]
    pub fn is_stale(&self) -> bool {
        self.cur.next.get().is_some()
    }

    /// Advances to the newest visible snapshot (wait-free: follows forward
    /// pointers with atomic loads) and returns its epoch. Never moves
    /// backward, so the epochs a subscription observes are monotone.
    pub fn advance(&mut self) -> u64 {
        while let Some(next) = self.cur.next.get() {
            self.cur = Arc::clone(next);
        }
        self.cur.snap.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_publishes_and_advances_monotonically() {
        let mut p = Publisher::new("e0");
        let mut sub = p.subscribe();
        assert_eq!(sub.epoch(), 0);
        assert!(!sub.is_stale());
        assert_eq!(p.publish("e1"), 1);
        assert_eq!(p.publish("e2"), 2);
        assert!(sub.is_stale());
        assert_eq!(sub.epoch(), 0, "pinned until advanced");
        assert_eq!(*sub.snapshot().index(), "e0");
        assert_eq!(sub.advance(), 2);
        assert_eq!(*sub.snapshot().index(), "e2");
        assert!(!sub.is_stale());
        // A late subscriber starts at the newest snapshot.
        assert_eq!(p.subscribe().epoch(), 2);
    }

    #[test]
    fn chain_can_resume_a_prior_epoch_clock() {
        let mut p = Publisher::starting_at("ckpt", 7);
        assert_eq!(p.epoch(), 7);
        let mut sub = p.subscribe();
        assert_eq!(sub.epoch(), 7);
        assert_eq!(p.publish("e8"), 8);
        assert_eq!(sub.advance(), 8);
    }

    #[test]
    fn clones_pin_independently() {
        let mut p = Publisher::new(10u32);
        let mut a = p.subscribe();
        let b = a.clone();
        p.publish(11);
        assert_eq!(a.advance(), 1);
        assert_eq!(b.epoch(), 0, "clone stays pinned");
        assert_eq!(*b.snapshot().index(), 10);
    }

    #[test]
    fn readers_across_threads_observe_monotone_epochs() {
        let mut p = Publisher::new(0u64);
        let subs: Vec<Subscription<u64>> = (0..4).map(|_| p.subscribe()).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = subs
                .into_iter()
                .map(|mut sub| {
                    scope.spawn(move || {
                        let mut last = sub.epoch();
                        for _ in 0..10_000 {
                            let e = sub.advance();
                            assert!(e >= last, "epoch went backwards");
                            assert_eq!(*sub.snapshot().index(), e, "stamp matches payload");
                            last = e;
                        }
                        last
                    })
                })
                .collect();
            for e in 1..=64u64 {
                p.publish(e);
                std::thread::yield_now();
            }
            for h in handles {
                h.join().unwrap();
            }
        });
    }
}
