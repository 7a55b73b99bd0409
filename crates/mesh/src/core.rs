//! A mesh core: one pipeline stage's shard of the tile cascade.
//!
//! A [`MeshCore`] owns real [`Tile`]s — the same `Arc<TileWeights>`-backed
//! simulation objects the single-core [`EsamSystem`](esam_core::EsamSystem)
//! walks — covering either a contiguous run of whole layers or a column
//! slice of one layer (see [`MeshPlan`](crate::MeshPlan)). Within a core
//! the tiles are time-multiplexed: the core serves one frame's timestep
//! through its tiles in order, so its per-frame occupancy is the *sum* of
//! its tiles' cycle counts. Parallelism in the mesh comes from *different*
//! cores overlapping different frames, never from overlap inside a core.
//!
//! A core has no walk of its own: the mesh handler runs
//! [`walk_frame`](esam_core::cascade::walk_frame) over the core's tiles
//! for each frame of a hand-off — the very function `EsamSystem::infer`
//! runs over the whole cascade — so a shard reproduces the single-core
//! reference exactly: same calls, same order, same counters. Eligible
//! tiles take the closed-form frame kernel there, the others the cycle
//! walk.

use esam_core::{CoreError, SystemConfig, Tile};
use esam_nn::SnnModel;

/// One core of the mesh: a shard of the cascade plus its position in the
/// pipeline.
#[derive(Debug, Clone)]
pub struct MeshCore {
    id: usize,
    stage: usize,
    is_output: bool,
    tiles: Vec<Tile>,
}

impl MeshCore {
    /// Builds the core for stage `stage` of the plan, executing `layers`
    /// of `model` with the last layer's outputs sliced to `cols` (pass the
    /// full range for an unsplit stage).
    pub(crate) fn build(
        id: usize,
        stage: usize,
        model: &SnnModel,
        config: &SystemConfig,
        layers: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
        is_output: bool,
    ) -> Result<Self, CoreError> {
        let mut tiles = Vec::with_capacity(layers.len());
        for layer_index in layers.clone() {
            let layer = &model.layers()[layer_index];
            let is_last = layer_index + 1 == layers.end;
            let (outputs, col_start) = if is_last {
                (cols.len(), cols.start)
            } else {
                (layer.outputs(), 0)
            };
            let mut tile = Tile::new(layer.inputs(), outputs, config)?;
            if is_last && cols.len() != layer.outputs() {
                tile.load_layer_slice(layer, col_start)?;
            } else {
                tile.load_layer(layer)?;
            }
            tiles.push(tile);
        }
        Ok(Self {
            id,
            stage,
            is_output,
            tiles,
        })
    }

    /// Core id (chain position; link distance is the id difference).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Pipeline stage index.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Whether this core produces (a slice of) the readout layer.
    pub fn is_output(&self) -> bool {
        self.is_output
    }

    /// The core's tiles, in layer order (counters accumulate here).
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Width of the spike frame the core consumes.
    pub fn input_width(&self) -> usize {
        self.tiles[0].inputs()
    }

    /// Resets the tiles' activity counters.
    pub(crate) fn reset_stats(&mut self) {
        for tile in &mut self.tiles {
            tile.reset_stats();
        }
    }

    /// The core's tiles, mutably — what the handler walks.
    pub(crate) fn tiles_mut(&mut self) -> &mut [Tile] {
        &mut self.tiles
    }
}
