//! An independent PUP scoring oracle for the serving checks.
//!
//! It reads only a checkpoint's `global.emb` / `category.emb` tables and
//! recomputes the paper's model from scratch (PAPER.md §1):
//!
//! - graph: users, items, price levels and categories as nodes; binary,
//!   symmetric user–item (training pairs), item–price and item–category
//!   edges; both branches use the same graph;
//! - encoder: one layer `tanh(Â·E)` with `Â` the row-normalized `A + I`;
//! - decoder: `s = s_g + α·s_c` with `s_g = e_u·e_i + e_u·e_p + e_i·e_p` on
//!   the global branch and `s_c = c_u·c_c + c_u·c_p + c_c·c_p` on the
//!   category branch (items only bridge there).

use pup_ckpt::Checkpoint;

/// Largest difference between the oracle's scores of two items at the same
/// rank for which a served list may order them either way. The program and
/// the oracle sum in different orders, so equal scores differ by round-off
/// (~1e-15); 1e-9 leaves a wide margin and still catches any real error.
pub const SCORE_TOL: f64 = 1e-9;

/// The heterogeneous graph with its row-normalized self-looped adjacency.
pub struct Graph {
    n_users: usize,
    n_items: usize,
    n_prices: usize,
    item_price: Vec<usize>,
    item_category: Vec<usize>,
    /// CSR neighbour lists including the node itself.
    offsets: Vec<usize>,
    nbrs: Vec<u32>,
    /// Per-user sorted training items: the items serving must exclude.
    seen: Vec<Vec<u32>>,
}

impl Graph {
    pub fn new(
        n_users: usize,
        n_items: usize,
        n_prices: usize,
        n_categories: usize,
        item_price: &[usize],
        item_category: &[usize],
        train: &[(usize, usize)],
    ) -> Self {
        let n = n_users + n_items + n_prices + n_categories;
        let item = |i: usize| n_users + i;
        let price = |p: usize| n_users + n_items + p;
        let cat = |c: usize| n_users + n_items + n_prices + c;
        let mut lists: Vec<Vec<u32>> = (0..n).map(|v| vec![v as u32]).collect();
        let mut link = |a: usize, b: usize| {
            lists[a].push(b as u32);
            lists[b].push(a as u32);
        };
        for i in 0..n_items {
            link(item(i), price(item_price[i]));
            link(item(i), cat(item_category[i]));
        }
        let mut seen = vec![Vec::new(); n_users];
        for &(u, i) in train {
            link(u, item(i));
            seen[u].push(i as u32);
        }
        for l in lists.iter_mut().chain(seen.iter_mut()) {
            l.sort_unstable();
            l.dedup();
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbrs = Vec::new();
        offsets.push(0);
        for l in &lists {
            nbrs.extend_from_slice(l);
            offsets.push(nbrs.len());
        }
        Self {
            n_users,
            n_items,
            n_prices,
            item_price: item_price.to_vec(),
            item_category: item_category.to_vec(),
            offsets,
            nbrs,
            seen,
        }
    }

    fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `tanh(Â·E)` for every node; `emb` is row-major `n_nodes × dim`.
    fn encode(&self, emb: &[f64], dim: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n_nodes() * dim];
        for v in 0..self.n_nodes() {
            let nb = &self.nbrs[self.offsets[v]..self.offsets[v + 1]];
            let row = &mut out[v * dim..(v + 1) * dim];
            for &n in nb {
                let src = &emb[n as usize * dim..(n as usize + 1) * dim];
                for (o, x) in row.iter_mut().zip(src) {
                    *o += x;
                }
            }
            let inv = 1.0 / nb.len() as f64;
            for o in row.iter_mut() {
                *o = (*o * inv).tanh();
            }
        }
        out
    }

    /// Items the user interacted with in training, sorted.
    pub fn seen(&self, user: usize) -> &[u32] {
        &self.seen[user]
    }
}

/// Encoded representations of one model generation.
pub struct Oracle<'g> {
    graph: &'g Graph,
    rg: Vec<f64>,
    gd: usize,
    rc: Vec<f64>,
    cd: usize,
    alpha: f64,
}

fn table(ckpt: &Checkpoint, name: &str, rows: usize) -> Result<(Vec<f64>, usize), String> {
    let blob = ckpt.param(name).ok_or_else(|| format!("checkpoint has no {name} table"))?;
    let (r, c) = blob.value.shape();
    if r != rows {
        return Err(format!("{name} has {r} rows, the graph has {rows} nodes"));
    }
    Ok((blob.value.as_slice().to_vec(), c))
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl<'g> Oracle<'g> {
    pub fn from_checkpoint(
        graph: &'g Graph,
        ckpt: &Checkpoint,
        alpha: f64,
    ) -> Result<Self, String> {
        let (eg, gd) = table(ckpt, "global.emb", graph.n_nodes())?;
        let (ec, cd) = table(ckpt, "category.emb", graph.n_nodes())?;
        Ok(Self::from_tables(graph, &eg, gd, &ec, cd, alpha))
    }

    fn from_tables(
        graph: &'g Graph,
        eg: &[f64],
        gd: usize,
        ec: &[f64],
        cd: usize,
        alpha: f64,
    ) -> Self {
        Self { graph, rg: graph.encode(eg, gd), gd, rc: graph.encode(ec, cd), cd, alpha }
    }

    fn g(&self, node: usize) -> &[f64] {
        &self.rg[node * self.gd..(node + 1) * self.gd]
    }

    fn c(&self, node: usize) -> &[f64] {
        &self.rc[node * self.cd..(node + 1) * self.cd]
    }

    /// The score of every item for `user`.
    pub fn scores(&self, user: usize) -> Vec<f64> {
        let gr = self.graph;
        let (eu, cu) = (self.g(user), self.c(user));
        (0..gr.n_items)
            .map(|i| {
                let p = gr.n_users + gr.n_items + gr.item_price[i];
                let c = gr.n_users + gr.n_items + gr.n_prices + gr.item_category[i];
                let (ei, ep) = (self.g(gr.n_users + i), self.g(p));
                let (cc, cp) = (self.c(c), self.c(p));
                let s_g = dot(eu, ei) + dot(eu, ep) + dot(ei, ep);
                let s_c = dot(cu, cc) + dot(cu, cp) + dot(cc, cp);
                s_g + self.alpha * s_c
            })
            .collect()
    }

    /// The top `k` unseen items, best first (ties by lower id), with scores.
    pub fn top_k(&self, user: usize, k: usize) -> (Vec<u32>, Vec<f64>) {
        let scores = self.scores(user);
        let seen = self.graph.seen(user);
        let mut cand: Vec<u32> =
            (0..self.graph.n_items as u32).filter(|i| seen.binary_search(i).is_err()).collect();
        cand.sort_by(|&a, &b| scores[b as usize].total_cmp(&scores[a as usize]).then(a.cmp(&b)));
        cand.truncate(k);
        (cand, scores)
    }

    /// Checks a served top-`k` list for `user`: no training item, no
    /// repeats, and at every rank an item whose oracle score is within
    /// [`SCORE_TOL`] of the oracle's item at that rank.
    pub fn check(&self, user: usize, served: &[u32], k: usize) -> Result<(), String> {
        let (want, scores) = self.top_k(user, k);
        if served.len() != want.len() {
            return Err(format!(
                "user {user}: {} items served, oracle has {}",
                served.len(),
                want.len()
            ));
        }
        let seen = self.graph.seen(user);
        let mut distinct = served.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() != served.len() {
            return Err(format!("user {user}: repeated item in {served:?}"));
        }
        for (rank, (&s, &w)) in served.iter().zip(&want).enumerate() {
            if seen.binary_search(&s).is_ok() {
                return Err(format!("user {user}: training item {s} served at rank {rank}"));
            }
            let got = scores.get(s as usize).copied().unwrap_or(f64::NAN);
            let gap = (got - scores[w as usize]).abs();
            if gap.is_nan() || gap > SCORE_TOL {
                return Err(format!(
                    "user {user}: rank {rank} serves item {s} (oracle score {got}), \
                     oracle ranks item {w} there (score {}), gap {gap:e}",
                    scores[w as usize]
                ));
            }
        }
        Ok(())
    }
}

/// Checks the oracle itself on a toy graph worked by hand.
///
/// One user, two items, one price level, one category; the user bought
/// item 0. Node order: u0, i0, i1, p0, c0. With self-loops the neighbour
/// sets are u0:{u0,i0}, i0:{u0,i0,p0,c0}, i1:{i1,p0,c0}, p0:{i0,i1,p0},
/// c0:{i0,i1,c0}, so each encoded value is `tanh` of the mean of those
/// embeddings. Dimension 1 on both branches, α = 0.5.
pub fn toy_graph_check() -> Result<(), String> {
    let g = Graph::new(1, 2, 1, 1, &[0, 0], &[0, 0], &[(0, 0), (0, 0)]);
    //           u0    i0    i1    p0    c0
    let eg = [0.4, 0.2, -0.7, 0.3, 0.1];
    let ec = [-0.2, 0.5, 0.1, 0.6, -0.3];
    let o = Oracle::from_tables(&g, &eg, 1, &ec, 1, 0.5);
    let t = f64::tanh;
    let (u, i0, i1) =
        (t((0.4 + 0.2) / 2.0), t((0.4 + 0.2 + 0.3 + 0.1) / 4.0), t((-0.7 + 0.3 + 0.1) / 3.0));
    let p = t((0.2 - 0.7 + 0.3) / 3.0);
    let (cu, cp, cc) =
        (t((-0.2 + 0.5) / 2.0), t((0.5 + 0.1 + 0.6) / 3.0), t((0.5 + 0.1 - 0.3) / 3.0));
    let s_c = cu * cc + cu * cp + cc * cp;
    let want = [u * i0 + u * p + i0 * p + 0.5 * s_c, u * i1 + u * p + i1 * p + 0.5 * s_c];
    let got = o.scores(0);
    for (k, (a, b)) in got.iter().zip(&want).enumerate() {
        if (a - b).abs() > 1e-15 {
            return Err(format!("oracle self-check: item {k} scores {a}, by hand {b}"));
        }
    }
    // The bought item is excluded, so the top-2 holds only item 1.
    let (top, _) = o.top_k(0, 2);
    if top != [1] {
        return Err(format!("oracle self-check: top-2 over unseen items is {top:?}, want [1]"));
    }
    o.check(0, &[1], 2)?;
    if o.check(0, &[0], 2).is_ok() {
        return Err("oracle self-check: a training item passed the check".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn toy_graph_matches_hand_computation() {
        super::toy_graph_check().expect("oracle self-check");
    }
}
