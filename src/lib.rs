//! Workspace root crate: re-exports the Minion reproduction crates so that
//! the runnable examples and cross-crate integration tests have a single
//! dependency surface.
pub use minion_apps as apps;
pub use minion_cobs as cobs;
pub use minion_core as core;
pub use minion_crypto as crypto;
pub use minion_engine as engine;
pub use minion_mstcp as mstcp;
pub use minion_obs as obs;
pub use minion_simnet as simnet;
pub use minion_stack as stack;
pub use minion_tcp as tcp;
pub use minion_testkit as testkit;
pub use minion_tls as tls;
