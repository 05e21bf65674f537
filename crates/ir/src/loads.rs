//! Conflict-resource load of one sub-pipeline, the quantity behind the
//! Eq. 1 contention constraint: how many tasks of a set drive each conflict
//! resource at once. `Schedule::validate` (rule 3) and the RA003 lint both
//! count it here.

use crate::{DepDag, TaskId};

/// A load counter over the DAG's dense resource index. One counter serves
/// every sub-pipeline of a schedule: [`Self::count`] resets only the
/// entries its previous call touched.
#[derive(Clone, Debug)]
pub struct ConflictLoads {
    /// Tasks of the counted set driving each dense resource.
    load: Vec<u32>,
    /// The last task of the set (in set order) that drives each resource.
    last: Vec<TaskId>,
    /// Dense resources with a nonzero load, in first-touch order.
    touched: Vec<u32>,
    /// The `(task, dense resource)` at which a load first went over its
    /// limit, counting in set order.
    first_over: Option<(TaskId, u32)>,
}

impl ConflictLoads {
    /// A zeroed counter for `dag`'s resources.
    pub fn new(dag: &DepDag) -> Self {
        let n = dag.n_dense_resources();
        Self {
            load: vec![0; n],
            last: vec![TaskId::default(); n],
            touched: Vec::new(),
            first_over: None,
        }
    }

    /// Count the load `tasks` put on each conflict resource, visiting tasks
    /// in order and each task's resources in its conflict-set order.
    pub fn count(&mut self, dag: &DepDag, tasks: &[TaskId]) {
        for &d in &self.touched {
            self.load[d as usize] = 0;
        }
        self.touched.clear();
        self.first_over = None;
        for &t in tasks {
            for &d in dag.conflict_dense(t).as_slice() {
                let load = &mut self.load[d as usize];
                if *load == 0 {
                    self.touched.push(d);
                }
                *load += 1;
                self.last[d as usize] = t;
                if self.first_over.is_none() && *load > dag.conflict_limit_at(d) {
                    self.first_over = Some((t, d));
                }
            }
        }
    }

    /// Where the counted set first oversubscribed a resource: the task that
    /// pushed the load one past the limit, and the resource's dense index.
    pub fn first_over(&self) -> Option<(TaskId, u32)> {
        self.first_over
    }

    /// Every oversubscribed resource of the counted set, ascending by dense
    /// index (hence by resource id), as `(dense index, load, last task)`.
    pub fn over_limit(&mut self, dag: &DepDag) -> Vec<(u32, u32, TaskId)> {
        if self.first_over.is_none() {
            return Vec::new();
        }
        self.touched.sort_unstable();
        self.touched
            .iter()
            .filter(|&&d| self.load[d as usize] > dag.conflict_limit_at(d))
            .map(|&d| (d, self.load[d as usize], self.last[d as usize]))
            .collect()
    }
}
