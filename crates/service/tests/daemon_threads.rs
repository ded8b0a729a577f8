//! A connection costs the daemon one thread: the worker pool is the
//! daemon's, shared by every connection. Alone in its binary, since it
//! counts the threads of the whole test process.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use adminref_core::policy::Policy;
use adminref_core::universe::Universe;
use adminref_monitor::MonitorConfig;
use adminref_service::{
    Daemon, DaemonConfig, MonitorService, PolicyService, WireClient, WireListener,
};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// 32 open connections, one `Version` round trip each, add at most the
/// accept loop, the pool's workers and one reader per connection.
#[test]
fn a_connection_costs_one_thread() {
    let mut universe = Universe::new();
    universe.user("admin");
    let policy = Policy::new(&universe);
    let service: Arc<dyn PolicyService> = Arc::new(MonitorService::in_memory(
        universe.clone(),
        policy,
        MonitorConfig::default(),
    ));
    let config = DaemonConfig::default();
    let before = threads();
    let listener = WireListener::tcp("127.0.0.1:0").unwrap();
    let daemon = Daemon::spawn_replicated(service, universe, listener, config, None).unwrap();
    let clients: Vec<WireClient> = (0..32)
        .map(|_| {
            let client = WireClient::connect_tcp(daemon.local_addr().unwrap()).unwrap();
            client.version_info().unwrap();
            client
        })
        .collect();
    let gained = threads() - before;
    assert!(
        gained <= 1 + config.workers + clients.len(),
        "{gained} threads for {} connections and {} workers",
        clients.len(),
        config.workers
    );
    drop(clients);
    daemon.shutdown();
}
