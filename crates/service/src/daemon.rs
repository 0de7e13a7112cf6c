//! The `ruche-sim serve` daemon: accepts connections on a TCP or Unix
//! socket and drives one [`Engine`] shared by every connection.
//!
//! Each connection gets its own thread reading request lines and writing
//! response lines through [`crate::respond`] — exactly the function the
//! offline `eval` path uses, which is what makes daemon output
//! byte-identical to offline output. The accept loop polls a shutdown
//! flag (set by the `{"cmd":"shutdown"}` request or by the embedding
//! process), then joins every connection thread before returning, so
//! shutdown is clean: no response line is ever torn.

use crate::engine::Engine;
use crate::sock::{AnyListener, AnyStream, Bind};
use crate::{respond, Control};
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a connection read blocks before re-checking the shutdown
/// flag. Also bounds how stale the accept loop's view of the flag can be.
const POLL: Duration = Duration::from_millis(25);

/// A bound, not-yet-running service daemon.
pub struct Server {
    engine: Arc<Engine>,
    listener: AnyListener,
    addr: String,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `engine` to `bind`. The daemon does not serve until
    /// [`Server::run`].
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the socket.
    pub fn bind(bind: &Bind, engine: Engine) -> io::Result<Self> {
        let listener = AnyListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.addr();
        Ok(Server {
            engine: Arc::new(engine),
            listener,
            addr,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address: `host:port` for TCP (ephemeral ports resolved),
    /// the socket path for Unix.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The engine every connection shares.
    pub fn engine(&self) -> Arc<Engine> {
        self.engine.clone()
    }

    /// Serves until shut down, then joins every connection thread.
    ///
    /// # Errors
    ///
    /// Any accept-loop I/O error other than the nonblocking/interrupted
    /// kinds the loop absorbs.
    pub fn run(self) -> io::Result<()> {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok(stream) => {
                    let engine = self.engine.clone();
                    let shutdown = self.shutdown.clone();
                    conns.push(std::thread::spawn(move || {
                        serve_connection(stream, &engine, &shutdown);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            conns.retain(|h| !h.is_finished());
        }
        for h in conns {
            let _ = h.join();
        }
        self.listener.cleanup();
        Ok(())
    }
}

/// One connection: read request lines, answer each through the shared
/// engine, honor shutdown. Read timeouts keep the thread responsive to
/// the flag even when the client goes quiet.
fn serve_connection(stream: AnyStream, engine: &Engine, shutdown: &AtomicBool) {
    crate::metrics::Metrics::add(&engine.metrics().connections, 1);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let mut write_failed = false;
                let control = respond(engine, line.trim(), &mut |resp| {
                    write_failed |= write_line(&mut writer, resp).is_err();
                });
                line.clear();
                if write_failed {
                    break;
                }
                if matches!(control, Control::Shutdown) {
                    shutdown.store(true, Ordering::SeqCst);
                    break;
                }
            }
            // A timeout mid-line leaves the partial line in `line`
            // (read_line appends); the retry keeps appending to it.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Writes one response line and flushes it, so clients see responses as
/// they stream rather than on buffer boundaries.
fn write_line(w: &mut impl Write, s: &str) -> io::Result<()> {
    w.write_all(s.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}
