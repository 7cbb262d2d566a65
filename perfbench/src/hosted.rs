//! Traced-run backend: each partition's `Server` and `Collector` run
//! inside the benchmark process, on a thread of their own, behind the
//! same loopback TCP and the same v2 `PipelinedUplink` a spawned
//! `sentinet serve` child would use. Hosting them here is what lets
//! the traced run read the gateway's own stage counters
//! (`ServerStats`, `Collector::stage_timings`) after each partition
//! finishes; the uplink calls are wrapped in spans on the generator
//! thread.

use crate::shape::Shape;
use crate::trace::{span, Shared};
use sentinet_controller::{
    replay_report, BackendError, LinkDown, LinkReply, PartitionBackend, PartitionId, PartitionLink,
};
use sentinet_gateway::{
    Collector, GatewayReport, PipelinedConfig, PipelinedUplink, Server, ServerConfig, ServerStats,
    StageTimings, UplinkStats,
};
use sentinet_sim::{SensorId, Timestamp};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What one hosted partition owner reported when it finished.
pub struct Hosted {
    pub server: ServerStats,
    pub stages: StageTimings,
    /// The live collector's own report (the merge replays the WAL
    /// into a second one).
    pub report: GatewayReport,
}

type ServeResult = Result<Hosted, String>;

/// Backend hosting every partition owner in this process.
pub struct HostedBackend {
    shape: Shape,
    wal_root: PathBuf,
    tracer: Shared,
    finished: Finished,
}

/// Finished owners, in finish order, readable after the federation
/// that owns the backend is consumed by its `finish`.
pub type Finished = Rc<RefCell<Vec<(PartitionId, Hosted)>>>;

impl HostedBackend {
    /// A backend over `wal_root/p{N}`, and the handle its finished
    /// owners land in.
    pub fn new(shape: Shape, wal_root: PathBuf, tracer: Shared) -> (Self, Finished) {
        let finished = Finished::default();
        let backend = Self {
            shape,
            wal_root,
            tracer,
            finished: finished.clone(),
        };
        (backend, finished)
    }

    fn dir(&self, p: PartitionId) -> PathBuf {
        self.wal_root.join(format!("p{p}"))
    }
}

/// Link to one hosted owner.
pub struct HostedLink {
    uplink: Option<PipelinedUplink>,
    serving: Option<JoinHandle<ServeResult>>,
    shutdown: Arc<AtomicBool>,
    tracer: Shared,
}

impl HostedLink {
    /// Stops the server thread without a `Fin` and waits for it.
    fn stop(&mut self) -> Option<ServeResult> {
        self.uplink = None;
        self.shutdown.store(true, Ordering::SeqCst);
        let handle = self.serving.take()?;
        Some(
            handle
                .join()
                .unwrap_or_else(|_| Err("hosted server thread panicked".into())),
        )
    }
}

impl Drop for HostedLink {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

impl PartitionLink for HostedLink {
    fn send(
        &mut self,
        sensor: SensorId,
        _seq: u64,
        time: Timestamp,
        values: &[f64],
    ) -> Result<LinkReply, LinkDown> {
        let uplink = self
            .uplink
            .as_mut()
            .ok_or_else(|| LinkDown("closed".into()))?;
        span(Some(&self.tracer), "gateway.client.send", || {
            uplink.send(sensor, time, values)
        })
        .map(|_| LinkReply::Pipelined)
        .map_err(|e| LinkDown(e.to_string()))
    }

    fn flush(&mut self) -> Result<(), LinkDown> {
        let uplink = self
            .uplink
            .as_mut()
            .ok_or_else(|| LinkDown("closed".into()))?;
        span(Some(&self.tracer), "gateway.client.flush", || {
            uplink.flush()
        })
        .map_err(|e| LinkDown(e.to_string()))
    }

    fn stats(&self) -> UplinkStats {
        self.uplink.as_ref().map(|u| u.stats()).unwrap_or_default()
    }
}

impl PartitionBackend for HostedBackend {
    type Link = HostedLink;

    fn start(&mut self, p: PartitionId, epoch: u64) -> Result<HostedLink, BackendError> {
        let err = |e: &dyn std::fmt::Display| BackendError(format!("hosting partition {p}: {e}"));
        let (mut collector, _) =
            Collector::open(self.shape.serve_config(&self.dir(p), epoch)).map_err(|e| err(&e))?;
        let server = Server::start(ServerConfig::default()).map_err(|e| err(&e))?;
        let mut transport = self.shape.uplink();
        transport.connect = server.addr().to_string();
        transport.epoch = epoch;
        let shutdown = server.shutdown_handle();
        let serving = std::thread::spawn(move || {
            let server = server.run(&mut collector).map_err(|e| e.to_string())?;
            let stages = collector.stage_timings();
            let report = collector.finish().map_err(|e| e.to_string())?;
            Ok(Hosted {
                server,
                stages,
                report,
            })
        });
        let mut config = PipelinedConfig::new("");
        config.transport = transport;
        config.batch_size = self.shape.batch_size;
        Ok(HostedLink {
            uplink: Some(PipelinedUplink::new(config)),
            serving: Some(serving),
            shutdown,
            tracer: self.tracer.clone(),
        })
    }

    fn fence(&mut self, _p: PartitionId, mut link: HostedLink) {
        let _ = link.stop();
    }

    fn finish(&mut self, p: PartitionId, mut link: HostedLink) -> Result<(), BackendError> {
        let closed = match link.uplink.take() {
            Some(uplink) => uplink.finish().map(|_| ()).map_err(|e| e.to_string()),
            None => Err("link already closed".into()),
        };
        let served = link.stop();
        closed.map_err(|e| BackendError(format!("close handshake failed: {e}")))?;
        match served {
            Some(Ok(hosted)) => {
                self.finished.borrow_mut().push((p, hosted));
                Ok(())
            }
            Some(Err(e)) => Err(BackendError(format!("hosted owner failed: {e}"))),
            None => Err(BackendError("hosted owner already stopped".into())),
        }
    }

    fn merge_report(&mut self, p: PartitionId) -> Result<GatewayReport, BackendError> {
        let template = self.shape.replay_template(&self.wal_root);
        let dir = self.dir(p);
        span(Some(&self.tracer), "controller.merge", || {
            replay_report(&template, &dir)
        })
        .map(|(report, _)| report)
    }
}
