//! Cluster wiring: server host threads wired like `lhrs-netd`, one client
//! wired like `lhrs-netcli`, over the in-process loopback or real TCP.

use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lhrs_core::Config;
use lhrs_net::client::NetClient;
use lhrs_net::cluster::{ClusterSpec, NodeSpec, Role};
use lhrs_net::durable::wal_factory;
use lhrs_net::host::NodeHost;
use lhrs_net::transport::{HostEvent, LoopbackNet, LoopbackTransport, TcpTransport, Transport};
use lhrs_obs::{Clock, Metrics};
use lhrs_sim::NodeId;

/// Node 0 is the coordinator, node 1 the benchmark's client.
pub const COORDINATOR: u32 = 0;
/// The client node id.
pub const CLIENT: u32 = 1;

/// How the hosts of one cluster reach each other.
#[derive(Clone)]
pub enum Net {
    /// In-process channels; every message still crosses the wire codec.
    Loopback(LoopbackNet),
    /// Real sockets on 127.0.0.1, one listener per node.
    Tcp,
}

/// Busy-time accounting of one traced host loop (see [`HostHandle`]).
#[derive(Default)]
pub struct LoopStats {
    /// Nanoseconds spent inside polls that did work.
    pub busy_ns: AtomicU64,
    /// Polls that did work.
    pub busy_polls: AtomicU64,
}

/// One server host thread.
pub struct HostHandle {
    /// Node ids this host carries.
    pub ids: Vec<u32>,
    tx: Sender<HostEvent>,
    thread: Option<JoinHandle<()>>,
    /// The host's metrics registry (`Metrics::new(Clock::wall())`, as in
    /// `lhrs-netd`).
    pub metrics: Metrics,
    /// The host's `Env::now` epoch: trace events are stamped against it.
    pub epoch: Instant,
    /// Filled only when the host loop is traced.
    pub loop_stats: Arc<LoopStats>,
}

impl HostHandle {
    /// Stop the host loop and wait for its thread.
    pub fn stop(&mut self) {
        let _ = self.tx.send(HostEvent::Shutdown);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("a server host thread panicked");
        }
    }
}

impl Drop for HostHandle {
    fn drop(&mut self) {
        let _ = self.tx.send(HostEvent::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A running cluster: its server hosts, the client, and where its WAL
/// lives (if durable).
pub struct Cluster {
    /// Server host threads (the coordinator rides on the first).
    pub hosts: Vec<HostHandle>,
    /// The benchmark's single client.
    pub client: Client,
    net: Net,
    /// Durable root of every server node's write-ahead logs.
    pub wal_root: Option<PathBuf>,
}

/// The one client, over either transport.
pub enum Client {
    /// Loopback client.
    Loopback(NetClient<LoopbackTransport>),
    /// TCP client.
    Tcp(NetClient<TcpTransport>),
}

/// Dispatch a body over whichever transport the client runs on.
#[macro_export]
macro_rules! with_client {
    ($client:expr, $c:ident => $body:expr) => {
        match $client {
            $crate::cluster::Client::Loopback($c) => $body,
            $crate::cluster::Client::Tcp($c) => $body,
        }
    };
}

/// What to build.
pub struct ClusterPlan {
    /// The file configuration.
    pub cfg: Config,
    /// Number of server nodes (data, parity and spares).
    pub servers: u32,
    /// Server host threads: each entry lists the node ids one thread
    /// carries. The coordinator must appear in exactly one.
    pub host_groups: Vec<Vec<u32>>,
    /// Loopback or TCP.
    pub tcp: bool,
    /// Give every server node a write-ahead log under this root from
    /// boot (`lhrs-netd --data-dir` on a first boot).
    pub wal_root: Option<PathBuf>,
    /// Drive the server loops with timed `NodeHost::poll` calls and give
    /// the client host a metrics registry too.
    pub traced: bool,
}

/// The spec for `servers` server nodes after a coordinator and a client.
pub fn spec_for(cfg: &Config, servers: u32, addr: impl Fn(u32) -> String) -> ClusterSpec {
    let nodes = (0..servers + 2)
        .map(|id| NodeSpec {
            id,
            addr: addr(id),
            role: match id {
                COORDINATOR => Role::Coordinator,
                CLIENT => Role::Client,
                _ => Role::Server,
            },
        })
        .collect();
    let mut cfg = cfg.clone();
    cfg.node_pool = servers as usize + 2;
    let spec = ClusterSpec { cfg, nodes };
    spec.validate().expect("benchmark cluster spec is valid");
    spec
}

/// `n` distinct free ports on 127.0.0.1 (held open until all are chosen).
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("bound address").port())
        .collect()
}

impl Cluster {
    /// Boot every host thread and a client synced to the coordinator.
    pub fn boot(plan: ClusterPlan) -> Cluster {
        let total = plan.servers + 2;
        let (spec, net) = if plan.tcp {
            let ports = free_ports(total as usize);
            let spec = spec_for(&plan.cfg, plan.servers, |id| {
                format!("127.0.0.1:{}", ports[id as usize])
            });
            (spec, Net::Tcp)
        } else {
            let spec = spec_for(&plan.cfg, plan.servers, |id| format!("loopback:{id}"));
            (spec, Net::Loopback(LoopbackNet::new()))
        };
        let hosts: Vec<HostHandle> = plan
            .host_groups
            .iter()
            .map(|ids| spawn_host(&spec, &net, ids.clone(), plan.wal_root.clone(), plan.traced))
            .collect();
        let client = build_client(&spec, &net, plan.traced);
        Cluster {
            hosts,
            client,
            net,
            wal_root: plan.wal_root,
        }
    }

    /// Number of data buckets in the client's allocation-table snapshot.
    pub fn bucket_count(&self) -> u64 {
        with_client!(&self.client, c => c.bucket_count() as u64)
    }

    /// The node carrying data bucket `bucket`, per the client's table.
    pub fn data_node(&self, bucket: u64) -> u32 {
        with_client!(&self.client, c => c.host().shared().registry.borrow().data_node(bucket).0)
    }

    /// Pump the client until its table has not changed for `quiet`, so
    /// splits still in flight after a load settle before timing starts.
    pub fn settle(&mut self, quiet: Duration, limit: Duration) {
        let deadline = Instant::now() + limit;
        let mut last = self.bucket_count();
        let mut since = Instant::now();
        while Instant::now() < deadline {
            with_client!(&mut self.client, c => c.pump(Duration::from_millis(5)));
            let now = self.bucket_count();
            if now != last {
                last = now;
                since = Instant::now();
            } else if since.elapsed() >= quiet {
                return;
            }
        }
    }

    /// The host carrying node `id`.
    pub fn host_of(&self, id: u32) -> Option<usize> {
        self.hosts.iter().position(|h| h.ids.contains(&id))
    }

    /// Kill host `index` the way a crashed server process dies: its nodes
    /// become unreachable and its thread stops.
    pub fn kill_host(&mut self, index: usize) {
        if let Net::Loopback(net) = &self.net {
            net.unregister(&self.hosts[index].ids);
        }
        self.hosts[index].stop();
    }

    /// Sum of counter `name` over every server host's registry.
    pub fn server_counter(&self, name: &'static str) -> u64 {
        self.hosts
            .iter()
            .map(|h| h.metrics.counter_total(name))
            .sum()
    }

    /// Sum of labeled counter `name{kind}` over every server host.
    pub fn server_counter_kind(&self, name: &'static str, kind: &'static str) -> u64 {
        self.hosts
            .iter()
            .map(|h| h.metrics.counter_kind(name, kind))
            .sum()
    }

    /// The client host's registry (disabled unless requested).
    pub fn client_metrics(&self) -> Metrics {
        with_client!(&self.client, c => c.host().metrics().clone())
    }

    /// Stop every host and remove the WAL directory.
    pub fn shutdown(mut self) {
        for h in &mut self.hosts {
            h.stop();
        }
        if let Some(root) = &self.wal_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// One server host thread carrying `ids`, wired like `lhrs-netd`: an
/// enabled wall-clock registry shared by the host and its transport.
fn spawn_host(
    spec: &ClusterSpec,
    net: &Net,
    ids: Vec<u32>,
    wal_root: Option<PathBuf>,
    traced: bool,
) -> HostHandle {
    let metrics = Metrics::new(Clock::wall());
    let (tx, rx) = mpsc::channel();
    let loop_stats = Arc::new(LoopStats::default());
    let (epoch_tx, epoch_rx) = mpsc::channel();
    let wiring = HostWiring {
        spec: spec.clone(),
        ids: ids.clone(),
        events: (tx.clone(), rx),
        metrics: metrics.clone(),
        traced,
        loop_stats: loop_stats.clone(),
        epoch_tx,
        wal_root,
    };
    let thread = match net {
        Net::Loopback(net) => {
            net.register(&ids, tx.clone());
            let transport = LoopbackTransport::with_metrics(net.clone(), &ids, metrics.clone());
            std::thread::spawn(move || host_main(wiring, transport))
        }
        Net::Tcp => {
            let local: Vec<(u32, String)> = ids
                .iter()
                .map(|&id| (id, spec.addr_of(id).to_string()))
                .collect();
            let peers: HashMap<u32, String> = spec.addr_map().into_iter().collect();
            let transport =
                TcpTransport::start_with_metrics(&local, peers, tx.clone(), metrics.clone())
                    .expect("bind the server listeners");
            std::thread::spawn(move || host_main(wiring, transport))
        }
    };
    let epoch = epoch_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server host thread started");
    HostHandle {
        ids,
        tx,
        thread: Some(thread),
        metrics,
        epoch,
        loop_stats,
    }
}

/// Everything a host thread is built from.
struct HostWiring {
    spec: ClusterSpec,
    ids: Vec<u32>,
    events: (Sender<HostEvent>, mpsc::Receiver<HostEvent>),
    metrics: Metrics,
    traced: bool,
    loop_stats: Arc<LoopStats>,
    epoch_tx: Sender<Instant>,
    wal_root: Option<PathBuf>,
}

fn host_main<T: Transport>(w: HostWiring, transport: T) {
    let shared = w.spec.build_shared();
    // Durable nodes boot as `lhrs-netd --data-dir` does on a first boot: a
    // fresh write-ahead log per node, and the factory for shards created
    // later.
    if let Some(root) = &w.wal_root {
        shared.set_store_factory(wal_factory(root.clone(), w.spec.cfg.wal_fsync));
    }
    let (tx, rx) = w.events;
    let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
    host.set_metrics(w.metrics);
    for &id in &w.ids {
        let mut node = w.spec.build_node(&shared, id);
        if w.wal_root.is_some() {
            node.attach_fresh_store(NodeId(id));
        }
        host.add_node(id, node);
    }
    let _ = w
        .epoch_tx
        .send(Instant::now() - Duration::from_micros(host.now_us()));
    if w.traced {
        traced_loop(&mut host, &w.loop_stats);
    } else {
        host.run();
    }
}

/// `NodeHost::run`, with every poll timed: the host layer's busy time.
fn traced_loop<T: Transport>(host: &mut NodeHost<T>, stats: &LoopStats) {
    while !host.is_shutdown() {
        let t = Instant::now();
        let did = host.poll(Duration::from_millis(50));
        if did {
            stats
                .busy_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            stats.busy_polls.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The client, wired like `lhrs-netcli`: no metrics registry (unless the
/// traced run asks for one), synced to the coordinator's table.
fn build_client(spec: &ClusterSpec, net: &Net, with_metrics: bool) -> Client {
    let (tx, rx) = mpsc::channel();
    let shared = spec.build_shared();
    let metrics = if with_metrics {
        Metrics::new(Clock::wall())
    } else {
        Metrics::disabled()
    };
    let mut client = match net {
        Net::Loopback(net) => {
            net.register(&[CLIENT], tx.clone());
            let transport =
                LoopbackTransport::with_metrics(net.clone(), &[CLIENT], metrics.clone());
            let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
            host.set_metrics(metrics);
            host.add_node(CLIENT, spec.build_node(&shared, CLIENT));
            Client::Loopback(NetClient::new(host, CLIENT, 1))
        }
        Net::Tcp => {
            let local = vec![(CLIENT, spec.addr_of(CLIENT).to_string())];
            let peers: HashMap<u32, String> = spec.addr_map().into_iter().collect();
            let transport =
                TcpTransport::start_with_metrics(&local, peers, tx.clone(), metrics.clone())
                    .expect("bind the client listener");
            let mut host = NodeHost::new(shared.clone(), transport, tx, rx);
            host.set_metrics(metrics);
            host.add_node(CLIENT, spec.build_node(&shared, CLIENT));
            Client::Tcp(NetClient::new(host, CLIENT, 1))
        }
    };
    let synced =
        with_client!(&mut client, c => c.sync_registry(COORDINATOR, Duration::from_secs(10)));
    assert!(synced, "the client never received the allocation table");
    client
}
