//! Asynchronous compilation.
//!
//! Carac's JIT can compile blocking (the query waits for the artifact) or
//! asynchronously: compilation requests are shipped to a dedicated compiler
//! thread and the interpreter keeps making progress, switching to the
//! compiled artifact at the next safe point once it is ready (paper §V-B.2
//! "Asynchronous Compilation").  Because every IR node boundary is a safe
//! point and all state lives in the storage layer, the hand-over needs no
//! stack surgery — the engine simply starts using the artifact on its next
//! visit to the node.
//!
//! Blocking compilations run on the caller's thread.  The compiler thread
//! and its channel are created by the first asynchronous request, so an
//! engine that only ever compiles blocking (or never compiles) spawns and
//! joins nothing.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use carac_ir::{IRNode, NodeId, OpKind};
use carac_storage::hasher::{FxHashMap, FxHashSet};

use crate::backends::{compile_artifact, Artifact, BackendKind, StagingCostModel};
use crate::error::ExecError;
use crate::stats::CompileEvent;

/// A request shipped to the compiler thread.
struct CompileRequest {
    node_id: NodeId,
    kind: OpKind,
    subtree: IRNode,
    backend: BackendKind,
    staging: StagingCostModel,
    warm: bool,
}

/// A finished compilation.
pub struct CompileResult {
    /// The artifact.
    pub artifact: Artifact,
    /// Bookkeeping for the statistics log.
    pub event: CompileEvent,
}

type ResultMap = Arc<Mutex<FxHashMap<NodeId, Result<CompileResult, ExecError>>>>;

/// The background compiler thread's lifecycle.  It is created by the first
/// [`CompilationManager::request`]: blocking compilations run on the
/// caller's thread and never need it.
enum Worker {
    NotStarted,
    Running {
        tx: Sender<CompileRequest>,
        handle: JoinHandle<()>,
    },
    ShutDown,
}

/// The blocking compile entry point plus a handle to the (lazily started)
/// background compiler thread.
pub struct CompilationManager {
    worker: Worker,
    results: ResultMap,
    pending: FxHashSet<NodeId>,
    completed_compilations: usize,
}

impl std::fmt::Debug for CompilationManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompilationManager")
            .field("pending", &self.pending.len())
            .field("completed", &self.completed_compilations)
            .field("worker_started", &self.worker_started())
            .finish()
    }
}

impl Default for CompilationManager {
    fn default() -> Self {
        Self::new()
    }
}

/// The compiler thread's loop: compile each request, publish the result.
fn compile_requests(rx: &Receiver<CompileRequest>, results: &ResultMap) {
    while let Ok(request) = rx.recv() {
        // A backend compile error is shipped back as a result so the engine
        // degrades with a typed error at the next poll instead of hanging
        // on a forever-pending node.
        let result = compile_artifact(
            &request.subtree,
            request.backend,
            &request.staging,
            request.warm,
        )
        .map(|(artifact, duration)| CompileResult {
            artifact,
            event: CompileEvent {
                node: request.node_id,
                kind: request.kind,
                backend: request.backend.tag(),
                warm: request.warm,
                duration,
            },
        });
        match results.lock() {
            Ok(mut map) => {
                map.insert(request.node_id, result);
            }
            // The map is poisoned: some thread panicked while holding the
            // lock.  The worker cannot report an error itself, so it exits;
            // every subsequent poll on the engine side surfaces the typed
            // manager-failure error instead of panicking here.
            Err(_) => break,
        }
    }
}

impl CompilationManager {
    /// Creates a manager.  No thread is spawned until the first
    /// asynchronous [`request`](Self::request).
    pub fn new() -> Self {
        CompilationManager {
            worker: Worker::NotStarted,
            results: Arc::new(Mutex::new(FxHashMap::default())),
            pending: FxHashSet::default(),
            completed_compilations: 0,
        }
    }

    /// Whether the background compiler thread exists (it is started by the
    /// first [`request`](Self::request) and stopped by
    /// [`shutdown`](Self::shutdown)).
    pub fn worker_started(&self) -> bool {
        matches!(self.worker, Worker::Running { .. })
    }

    /// The channel to the compiler thread, starting the thread on first use.
    fn sender(&mut self) -> Result<&Sender<CompileRequest>, ExecError> {
        if let Worker::NotStarted = self.worker {
            let (tx, rx) = channel();
            let results = Arc::clone(&self.results);
            let handle = std::thread::Builder::new()
                .name("carac-compiler".to_string())
                .spawn(move || compile_requests(&rx, &results))
                .map_err(|err| {
                    ExecError::Compilation(format!("failed to spawn the compiler thread: {err}"))
                })?;
            self.worker = Worker::Running { tx, handle };
        }
        match &self.worker {
            Worker::Running { tx, .. } => Ok(tx),
            Worker::NotStarted | Worker::ShutDown => {
                Err(ExecError::Compilation("compiler thread shut down".into()))
            }
        }
    }

    /// Stops the compiler thread (if it was ever started) after it drains
    /// the requests already queued.  Later requests fail with a typed
    /// error; blocking compilation keeps working.
    pub fn shutdown(&mut self) {
        if let Worker::Running { tx, handle } =
            std::mem::replace(&mut self.worker, Worker::ShutDown)
        {
            // Closing the channel lets the worker drain and exit.
            drop(tx);
            let _ = handle.join();
        }
    }

    /// Whether the compiler has completed at least one compilation ("warm").
    pub fn is_warm(&self) -> bool {
        self.completed_compilations > 0
    }

    /// Number of compilations completed (collected) so far.
    pub fn completed(&self) -> usize {
        self.completed_compilations
    }

    /// Whether a request for `node_id` is in flight.
    pub fn is_pending(&self, node_id: NodeId) -> bool {
        self.pending.contains(&node_id)
    }

    /// Compiles synchronously on the calling thread.
    pub fn compile_blocking(
        &mut self,
        node_id: NodeId,
        kind: OpKind,
        subtree: &IRNode,
        backend: BackendKind,
        staging: &StagingCostModel,
    ) -> Result<CompileResult, ExecError> {
        let warm = self.is_warm();
        let (artifact, duration) = compile_artifact(subtree, backend, staging, warm)?;
        self.completed_compilations += 1;
        Ok(CompileResult {
            artifact,
            event: CompileEvent {
                node: node_id,
                kind,
                backend: backend.tag(),
                warm,
                duration,
            },
        })
    }

    /// Submits an asynchronous compilation request.  A duplicate request for
    /// a node that is already pending is ignored.
    pub fn request(
        &mut self,
        node_id: NodeId,
        kind: OpKind,
        subtree: IRNode,
        backend: BackendKind,
        staging: StagingCostModel,
    ) -> Result<(), ExecError> {
        if self.pending.contains(&node_id) {
            return Ok(());
        }
        let warm = self.is_warm();
        self.sender()?
            .send(CompileRequest {
                node_id,
                kind,
                subtree,
                backend,
                staging,
                warm,
            })
            .map_err(|_| ExecError::Compilation("compiler thread disconnected".into()))?;
        self.pending.insert(node_id);
        Ok(())
    }

    /// Polls for a finished compilation of `node_id`.  Returns `None` while
    /// the request is still in flight; a completed compilation may carry a
    /// typed backend error instead of an artifact.
    pub fn poll(&mut self, node_id: NodeId) -> Option<Result<CompileResult, ExecError>> {
        let result = match self.results.lock() {
            Ok(mut map) => map.remove(&node_id),
            // Poisoned map: a thread panicked while holding the lock.  The
            // request is reported failed through the existing typed
            // manager-failure path, so the engine degrades to blocking
            // compilation instead of the poll aborting the process.
            Err(_) => {
                self.pending.remove(&node_id);
                return Some(Err(ExecError::Compilation(
                    "compiler result map poisoned".into(),
                )));
            }
        };
        if result.is_some() {
            self.pending.remove(&node_id);
            self.completed_compilations += 1;
        }
        result
    }

    /// Blocks until the pending compilation of `node_id` finishes (used by
    /// tests and by engine shutdown paths).  Returns `None` if nothing was
    /// pending.
    pub fn wait(
        &mut self,
        node_id: NodeId,
        timeout: Duration,
    ) -> Option<Result<CompileResult, ExecError>> {
        if !self.pending.contains(&node_id) {
            return self.poll(node_id);
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(result) = self.poll(node_id) {
                return Some(result);
            }
            if std::time::Instant::now() >= deadline {
                return None;
            }
            std::thread::yield_now();
        }
    }
}

impl Drop for CompilationManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_datalog::parser::parse;
    use carac_ir::{generate_plan, EvalStrategy};

    fn plan() -> IRNode {
        let p = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n",
        )
        .unwrap();
        generate_plan(&p, EvalStrategy::SemiNaive)
    }

    #[test]
    fn blocking_compilation_is_immediately_available() {
        let mut manager = CompilationManager::new();
        let plan = plan();
        let result = manager
            .compile_blocking(
                plan.id,
                plan.kind(),
                &plan,
                BackendKind::Lambda,
                &StagingCostModel::free(),
            )
            .unwrap();
        assert!(matches!(result.artifact, Artifact::Plan(_)));
        assert!(!result.event.warm);
        assert!(manager.is_warm());
        // A second compilation is warm.
        let result = manager
            .compile_blocking(
                plan.id,
                plan.kind(),
                &plan,
                BackendKind::Lambda,
                &StagingCostModel::free(),
            )
            .unwrap();
        assert!(result.event.warm);
    }

    #[test]
    fn async_compilation_arrives_eventually() {
        let mut manager = CompilationManager::new();
        let plan = plan();
        manager
            .request(
                plan.id,
                plan.kind(),
                plan.clone(),
                BackendKind::Bytecode,
                StagingCostModel::free(),
            )
            .unwrap();
        assert!(manager.is_pending(plan.id));
        let result = manager
            .wait(plan.id, Duration::from_secs(5))
            .expect("compilation should finish")
            .expect("compilation should succeed");
        assert!(matches!(result.artifact, Artifact::Vm(_)));
        assert!(!manager.is_pending(plan.id));
        assert_eq!(manager.completed(), 1);
    }

    #[test]
    fn worker_starts_with_the_first_request_only() {
        let mut manager = CompilationManager::new();
        let plan = plan();
        manager
            .compile_blocking(
                plan.id,
                plan.kind(),
                &plan,
                BackendKind::Bytecode,
                &StagingCostModel::free(),
            )
            .unwrap();
        assert!(
            !manager.worker_started(),
            "blocking compiles need no thread"
        );
        manager
            .request(
                plan.id,
                plan.kind(),
                plan.clone(),
                BackendKind::Bytecode,
                StagingCostModel::free(),
            )
            .unwrap();
        assert!(manager.worker_started());
    }

    #[test]
    fn request_after_shutdown_is_a_typed_error() {
        let mut manager = CompilationManager::new();
        let plan = plan();
        manager.shutdown();
        let err = manager
            .request(
                plan.id,
                plan.kind(),
                plan.clone(),
                BackendKind::Lambda,
                StagingCostModel::free(),
            )
            .unwrap_err();
        assert!(matches!(err, ExecError::Compilation(_)), "got {err:?}");
        assert!(!manager.is_pending(plan.id));
        assert!(!manager.worker_started());
        // Blocking compilation is unaffected.
        manager
            .compile_blocking(
                plan.id,
                plan.kind(),
                &plan,
                BackendKind::Lambda,
                &StagingCostModel::free(),
            )
            .unwrap();
    }

    #[test]
    fn duplicate_requests_are_ignored() {
        let mut manager = CompilationManager::new();
        let plan = plan();
        for _ in 0..3 {
            manager
                .request(
                    plan.id,
                    plan.kind(),
                    plan.clone(),
                    BackendKind::Lambda,
                    StagingCostModel::free(),
                )
                .unwrap();
        }
        let _ = manager.wait(plan.id, Duration::from_secs(5)).unwrap();
        // Only one result was produced for the node.
        assert!(manager.poll(plan.id).is_none());
    }

    #[test]
    fn poisoned_result_map_reports_typed_error() {
        // Regression (robustness): a poisoned result map used to panic the
        // polling thread via `.expect(...)`.  It now reports through the
        // typed manager-failure path and clears the pending marker so the
        // engine can fall back to blocking compilation.
        let mut manager = CompilationManager::new();
        manager.pending.insert(NodeId(7));
        let results = Arc::clone(&manager.results);
        let _ = std::thread::spawn(move || {
            let _guard = results.lock().unwrap();
            panic!("poison the compiler result map");
        })
        .join();
        let result = manager.poll(NodeId(7)).expect("poisoned poll must report");
        match result {
            Err(ExecError::Compilation(msg)) => {
                assert!(msg.contains("poisoned"), "message: {msg}");
            }
            Err(other) => panic!("expected Compilation error, got {other:?}"),
            Ok(_) => panic!("expected an error, got a compile result"),
        }
        assert!(!manager.is_pending(NodeId(7)));
    }

    #[test]
    fn polling_unknown_node_returns_none() {
        let mut manager = CompilationManager::new();
        assert!(manager.poll(NodeId(42)).is_none());
        assert!(manager
            .wait(NodeId(42), Duration::from_millis(10))
            .is_none());
    }
}
