//! One module per reproduced table/figure. The crate docs hold the
//! experiment index.

pub mod accuracy;
pub mod addertree;
pub mod arbiter;
pub mod area;
pub mod batch;
pub mod corners;
pub mod faults;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod integrity;
pub mod learning;
pub mod learning_curve;
pub mod mesh;
pub mod nbl;
pub mod observe;
pub mod serve;
pub mod sta;
pub mod table2;
pub mod table3;
pub mod transient;
