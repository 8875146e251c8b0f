//! Streaming / sliding-window substrate.
//!
//! Provides the machinery the core algorithm and the experiment harness
//! share:
//!
//! * [`lattice`] — the geometric guess lattice `Γ = {(1+β)^i}` of the
//!   paper, as reusable level arithmetic;
//! * [`windowed`] — sliding-window maxima/minima over *lattice-quantized*
//!   values with memory `O(log Δ)` instead of `O(n)` (monotone deques
//!   whose entries are distinct quantization levels);
//! * [`diameter`] — a sliding-window diameter estimator with rotating
//!   anchors, used by the aspect-ratio-oblivious variant of the algorithm
//!   to bound the guess range from above;
//! * [`window`] — an exact window buffer, used by the full-window
//!   sequential baselines and by tests as ground truth.

pub mod diameter;
pub mod lattice;
pub mod window;
pub mod windowed;

pub use diameter::{AnchorState, DiameterEstimator, DiameterState};
pub use lattice::Lattice;
pub use window::ExactWindow;
pub use windowed::{WindowedMaxLattice, WindowedMinLattice};
