//! Broadcast variables (Spark's `Broadcast<T>`).
//!
//! The driver registers a value; each executor fetches it **once** on first
//! use (over `StreamRequest`/`StreamResponse` — under MPI4Spark-Optimized
//! the body travels via MPI, §VI-E) and caches it for every later task.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric::Payload;
use simt::sync::Mutex;

use crate::task::TaskContext;

/// Driver-side registry of broadcast values, shared with the driver
/// environment's stream manager.
#[derive(Default)]
pub struct BroadcastRegistry {
    values: Mutex<BTreeMap<u64, Payload>>,
    next_id: AtomicU64,
}

impl BroadcastRegistry {
    /// Register a value; returns its broadcast id.
    pub fn register<T: Any + Send + Sync>(&self, value: Arc<T>, virtual_size: u64) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.values.lock().insert(id, Payload::control_arc(value, virtual_size.max(8)));
        id
    }

    /// Serve a broadcast stream (`/broadcast/{id}`).
    pub fn open(&self, id: u64) -> Result<Payload, String> {
        self.values.lock().get(&id).cloned().ok_or_else(|| format!("no broadcast with id {id}"))
    }

    /// Drop a broadcast (Spark's `Broadcast.destroy`).
    pub fn destroy(&self, id: u64) {
        self.values.lock().remove(&id);
    }
}

/// A handle to a broadcast value, cheap to capture in task closures.
pub struct Broadcast<T: Any + Send + Sync> {
    id: u64,
    virtual_size: u64,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Any + Send + Sync> Clone for Broadcast<T> {
    fn clone(&self) -> Self {
        Broadcast {
            id: self.id,
            virtual_size: self.virtual_size,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Any + Send + Sync> Broadcast<T> {
    pub(crate) fn new(id: u64, virtual_size: u64) -> Self {
        Broadcast { id, virtual_size, _marker: std::marker::PhantomData }
    }

    /// Broadcast id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Declared wire size.
    pub fn virtual_size(&self) -> u64 {
        self.virtual_size
    }

    /// The value, fetched from the driver on this executor's first access
    /// and served from the executor-local cache afterwards. Concurrent
    /// first accesses single-flight: one task fetches, the rest wait on the
    /// cache (Spark's TorrentBroadcast holds the same per-executor lock).
    pub fn get(&self, ctx: &TaskContext) -> Arc<T> {
        loop {
            let claimed = {
                let mut cache = ctx.services.broadcast_cache.lock();
                match cache.get(&self.id) {
                    Some(crate::task::BroadcastSlot::Ready(v)) => {
                        return v.clone().downcast::<T>().expect("broadcast type")
                    }
                    Some(crate::task::BroadcastSlot::Fetching) => false,
                    None => {
                        cache.insert(self.id, crate::task::BroadcastSlot::Fetching);
                        true
                    }
                }
            };
            if claimed {
                let payload = ctx
                    .services
                    .fetch_driver_stream(&format!("/broadcast/{}", self.id))
                    .expect("broadcast reachable on the driver");
                let value = payload.value.clone().expect("broadcast carries a value");
                ctx.services
                    .broadcast_cache
                    .lock()
                    .insert(self.id, crate::task::BroadcastSlot::Ready(value.clone()));
                return value.downcast::<T>().expect("broadcast type");
            }
            simt::sleep(simt::time::micros(20));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip_and_destroy() {
        let reg = BroadcastRegistry::default();
        let id = reg.register(Arc::new(vec![1u64, 2, 3]), 1 << 20);
        let p = reg.open(id).unwrap();
        assert_eq!(p.virtual_len, 1 << 20);
        let v = p.value_as::<Vec<u64>>().unwrap();
        assert_eq!(*v, vec![1, 2, 3]);
        reg.destroy(id);
        assert!(reg.open(id).is_err());
    }

    #[test]
    fn ids_are_unique() {
        let reg = BroadcastRegistry::default();
        let a = reg.register(Arc::new(1u8), 8);
        let b = reg.register(Arc::new(2u8), 8);
        assert_ne!(a, b);
    }
}
