//! One module per reproduced table/figure. Each exposes
//! `run(opts: Opts)`, printing the reproduction and writing artifacts
//! under `results/`; Figures 6 and 9 share the load–latency routine in
//! `curves`.

pub mod ablations;
mod curves;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table6;
