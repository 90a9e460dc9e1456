/* Closed-world CCR-EDF slot micro-kernel.
 *
 * Compiled lazily by repro.sim.vector.ckernel and loaded via ctypes.
 * Executes the per-slot pipeline of repro.sim.engine.Simulation for the
 * strict configuration subset the glue admits (periodic RT-connection
 * traffic only, no observer, no drop-late, no faults) and is
 * bit-identical to the oracle for it: the float accumulators advance by
 * the same IEEE-754 double additions in the same order (no
 * reassociation -- never build with -ffast-math), a head's priority is
 * read off the laxity mapping's level-start table the glue derives
 * (repro.core.mapping.level_starts), and grants sweep (priority desc,
 * node asc) with the oracle's break-slot denial and spatial-reuse
 * overlap rules.
 *
 * All state lives in one workspace of 8-byte words handed in by the
 * glue: a header holding the word offset of every field, then the
 * fields in the order of ckernel.WORKSPACE (enum ws_field below).  It
 * carries a message table (pre-existing live messages first, one row
 * per scheduled release after), per-connection release calendar
 * columns, and every output the exit fold reads.
 *
 * Kernel scratch, rebuilt at each entry so each slot's work scales
 * with what is queued or due, not with the ring width or the
 * connection count:
 *   - per-node EDF heaps keyed (deadline, msg_id), and an occupancy
 *     mask with bit i set while node i's heap is non-empty; planning
 *     walks its set bits in ascending node order;
 *   - prio_of_lax, the laxity -> priority table filled once per level
 *     from the level-start column, over the laxities a head can reach
 *     in the window (every level start is positive, so laxity <= 0
 *     reads entry 0, the most urgent level);
 *   - the release wheel: W slots (a power of two above the largest
 *     period, at most 2^16) of connection bitmasks.  A connection's bit
 *     sits in the slot of its next due time modulo W; walking a slot's
 *     bits in ascending connection index is the oracle's (due, attach
 *     order) release order.  A bit whose connection is not due yet (a
 *     first release or a period W or more slots ahead) stays where it
 *     is for a later lap.
 */

#include <stdint.h>
#include <stdlib.h>

/* Message status codes (mirror repro.core.messages.MessageStatus). */
#define ST_PENDING 0
#define ST_IN_TRANSIT 1
#define ST_DELIVERED 2

/* Release wheel size cap: 2^16 slots of ceil(n_conns/64) words each. */
#define WHEEL_MAX_SLOTS ((int64_t)1 << 16)

/* Workspace fields, in the order of ckernel.WORKSPACE (pinned by
 * tests/sim/vector/test_soa.py).  ws[field] is the field's word offset. */
enum ws_field {
    /* int64 scalars in */
    W_N,
    W_START_SLOT,
    W_N_SLOTS,
    W_LIMIT,
    W_RT_LO,
    W_RT_HI,
    W_N_PRE,
    W_N_REL,
    W_N_CONNS,
    W_N_CIDS,
    W_ID0,
    /* int64 scalars in and out: the pending plan */
    W_MASTER,
    W_PREV_MASTER,
    W_N_REQ,
    W_N_TX,
    W_N_DEN,
    /* int64 scalars out */
    W_BUSY,
    W_PACKETS,
    W_WASTED,
    W_DENIALS,
    W_N_DEL,
    W_N_MISSED,
    W_N_LIVE,
    /* float64 scalars */
    W_SLOT_LENGTH,
    W_GAP,
    W_WALL,
    W_SLOT_TIME,
    W_GAP_TIME,
    /* per node */
    W_GAP_MATRIX,
    W_HEAP_CAP,
    W_TX_ROWS,
    W_DEN_ROWS,
    W_MASTER_COUNT,
    W_HOP_COUNT,
    /* per sourced connection */
    W_CONN_NODE,
    W_CONN_SIZE,
    W_CONN_DEADLINE,
    W_CONN_CID,
    W_CONN_LINKS,
    W_CONN_FIRST,
    W_CONN_PERIOD,
    W_CONN_STOP,
    /* per dense connection id */
    W_CID_DELIVERED,
    W_CID_MISSED,
    /* per RT priority level below the most urgent */
    W_RT_LEVEL_START,
    /* message table */
    W_M_NODE,
    W_M_SIZE,
    W_M_SENT,
    W_M_DEADLINE,
    W_M_CREATED,
    W_M_ID,
    W_M_CID,
    W_M_LINKS,
    W_M_STATUS,
    W_M_COMPLETED,
    W_M_CONN,
    W_LAT,
    W_DEL_CID,
    W_LIVE_ROWS,
    W_NFIELDS
};

#define I64(f) (ws + ws[f])
#define U64(f) ((uint64_t *)(ws + ws[f]))
#define F64(f) ((double *)(ws + ws[f]))

typedef struct {
    int64_t deadline;
    int64_t msg_id;
    int64_t row;
} Ent;

/* (deadline, msg_id) lexicographic compare -- msg_id is globally unique,
 * so the order is total and matches the Python tuple heaps. */
static inline int ent_lt(const Ent *a, const Ent *b) {
    if (a->deadline != b->deadline) {
        return a->deadline < b->deadline;
    }
    return a->msg_id < b->msg_id;
}

static void heap_push(Ent *heap, int64_t *size, Ent item) {
    int64_t i = (*size)++;
    heap[i] = item;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!ent_lt(&heap[i], &heap[parent])) {
            break;
        }
        Ent tmp = heap[parent];
        heap[parent] = heap[i];
        heap[i] = tmp;
        i = parent;
    }
}

static void heap_pop(Ent *heap, int64_t *size) {
    int64_t n = --(*size);
    if (n == 0) {
        return;
    }
    heap[0] = heap[n];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1;
        int64_t r = l + 1;
        int64_t smallest = i;
        if (l < n && ent_lt(&heap[l], &heap[smallest])) {
            smallest = l;
        }
        if (r < n && ent_lt(&heap[r], &heap[smallest])) {
            smallest = r;
        }
        if (smallest == i) {
            return;
        }
        Ent tmp = heap[smallest];
        heap[smallest] = heap[i];
        heap[i] = tmp;
        i = smallest;
    }
}

int64_t repro_run_ckernel(int64_t *ws) {
    const int64_t n = *I64(W_N);
    if (n <= 0 || n > 62) {
        return -1;
    }
    const int64_t start_slot = *I64(W_START_SLOT);
    const int64_t n_slots = *I64(W_N_SLOTS);
    const int64_t limit = *I64(W_LIMIT);
    const int64_t rt_lo = *I64(W_RT_LO);
    const int64_t rt_hi = *I64(W_RT_HI);
    /* Level rt_hi - 1 - k starts at laxity rt_level_start[k]. */
    const int64_t n_lower = rt_hi - rt_lo;
    const int64_t *rt_level_start = I64(W_RT_LEVEL_START);
    const int64_t n_pre = *I64(W_N_PRE);
    const int64_t n_rel = *I64(W_N_REL);
    const int64_t n_conns = *I64(W_N_CONNS);
    const int64_t n_cids = *I64(W_N_CIDS);
    const int64_t id0 = *I64(W_ID0);
    const double slot_length = *F64(W_SLOT_LENGTH);
    const double *gap_matrix = F64(W_GAP_MATRIX);
    const int64_t *heap_cap = I64(W_HEAP_CAP);
    int64_t *master_count = I64(W_MASTER_COUNT);
    int64_t *hop_count = I64(W_HOP_COUNT);
    const int64_t *conn_node = I64(W_CONN_NODE);
    const int64_t *conn_size = I64(W_CONN_SIZE);
    const int64_t *conn_deadline = I64(W_CONN_DEADLINE);
    const int64_t *conn_cid = I64(W_CONN_CID);
    const uint64_t *conn_links = U64(W_CONN_LINKS);
    const int64_t *conn_first = I64(W_CONN_FIRST);
    const int64_t *conn_period = I64(W_CONN_PERIOD);
    const int64_t *conn_stop = I64(W_CONN_STOP);
    int64_t *cid_delivered = I64(W_CID_DELIVERED);
    int64_t *cid_missed = I64(W_CID_MISSED);
    int64_t *m_node = I64(W_M_NODE);
    int64_t *m_size = I64(W_M_SIZE);
    int64_t *m_sent = I64(W_M_SENT);
    int64_t *m_deadline = I64(W_M_DEADLINE);
    int64_t *m_created = I64(W_M_CREATED);
    int64_t *m_id = I64(W_M_ID);
    int64_t *m_cid = I64(W_M_CID);
    uint64_t *m_links = U64(W_M_LINKS);
    int64_t *m_status = I64(W_M_STATUS);
    int64_t *m_completed = I64(W_M_COMPLETED);
    int64_t *m_conn = I64(W_M_CONN);
    /* Per delivery, in delivery order: latency and dense connection id. */
    int64_t *lat = I64(W_LAT);
    int64_t *del_cid = I64(W_DEL_CID);
    int64_t *live_rows = I64(W_LIVE_ROWS);
    int64_t n_rows = n_pre + n_rel;

    /* The largest laxity a head can have in the window: a release's is
     * at most its relative deadline, a carried row's at most its
     * deadline - start + 1.  Laxities at or above the last level start
     * all map to the least urgent level, so the table stops there. */
    int64_t lax_cap = 0;
    for (int64_t c = 0; c < n_conns; c++) {
        if (conn_deadline[c] > lax_cap) {
            lax_cap = conn_deadline[c];
        }
    }
    for (int64_t row = 0; row < n_pre; row++) {
        if (m_deadline[row] - start_slot + 1 > lax_cap) {
            lax_cap = m_deadline[row] - start_slot + 1;
        }
    }
    if (n_lower == 0) {
        lax_cap = 0;
    } else if (lax_cap > rt_level_start[n_lower - 1]) {
        lax_cap = rt_level_start[n_lower - 1];
    }

    /* Wheel size: the next power of two above the largest period, so a
     * re-armed connection never lands in the slot being walked, but at
     * most WHEEL_MAX_SLOTS: a longer period keeps its bit through the
     * laps before it is due, like a late first release. */
    int64_t wheel_slots = 1;
    for (int64_t c = 0; c < n_conns; c++) {
        while (wheel_slots <= conn_period[c] &&
               wheel_slots < WHEEL_MAX_SLOTS) {
            wheel_slots <<= 1;
        }
    }
    const int64_t wheel_mask = wheel_slots - 1;
    const int64_t n_words = (n_conns + 63) / 64;

    /* Scratch: per-node heap arena, node tables, grant lists, calendar,
     * priority table and release wheel (zeroed: the wheel starts
     * empty). */
    int64_t total_cap = 0;
    for (int64_t i = 0; i < n; i++) {
        total_cap += heap_cap[i];
    }
    Ent *arena = (Ent *)malloc((size_t)(total_cap > 0 ? total_cap : 1) *
                               sizeof(Ent));
    int64_t *scratch = (int64_t *)calloc(
        (size_t)(n * 9 + n_conns + lax_cap + 1 + wheel_slots * n_words),
        sizeof(int64_t));
    if (arena == NULL || scratch == NULL) {
        free(arena);
        free(scratch);
        return -2;
    }
    int64_t *hoff = scratch;
    int64_t *hsz = hoff + n;
    int64_t *head_row = hsz + n;
    int64_t *order = head_row + n;
    uint64_t *okey = (uint64_t *)(order + n);
    int64_t *cur_tx = (int64_t *)(okey + n);
    int64_t *cur_den = cur_tx + n;
    int64_t *nxt_tx = cur_den + n;
    int64_t *nxt_den = nxt_tx + n;
    int64_t *conn_due = nxt_den + n;
    int64_t *prio_of_lax = conn_due + n_conns;
    uint64_t *wheel = (uint64_t *)(prio_of_lax + lax_cap + 1);
    uint64_t occupied_nodes = 0;
    int64_t ret = 0;

    /* prio_of_lax[lax] = rt_hi - (level starts <= lax), one fill per
     * level; every start is positive, so entry 0 is rt_hi. */
    {
        int64_t lax = 0;
        for (int64_t k = 0; k <= n_lower; k++) {
            int64_t stop = k < n_lower && rt_level_start[k] <= lax_cap
                               ? rt_level_start[k]
                               : lax_cap + 1;
            for (; lax < stop; lax++) {
                prio_of_lax[lax] = rt_hi - k;
            }
        }
    }

    int64_t off = 0;
    for (int64_t i = 0; i < n; i++) {
        hoff[i] = off;
        hsz[i] = 0;
        off += heap_cap[i];
        master_count[i] = 0;
        hop_count[i] = 0;
    }
    for (int64_t ci = 0; ci < n_cids; ci++) {
        cid_delivered[ci] = 0;
        cid_missed[ci] = 0;
    }

    /* Seed the heaps with the pre-existing live messages. */
    for (int64_t row = 0; row < n_pre; row++) {
        int64_t node = m_node[row];
        Ent e = {m_deadline[row], m_id[row], row};
        if (hsz[node] >= heap_cap[node]) {
            ret = -3;
            goto done;
        }
        heap_push(arena + hoff[node], &hsz[node], e);
        occupied_nodes |= (uint64_t)1 << node;
    }

    /* The release calendar: each connection's next due slot, its bit
     * filed in the wheel until its window is spent. */
    for (int64_t c = 0; c < n_conns; c++) {
        int64_t due = conn_first[c];
        conn_due[c] = due;
        if (due < conn_stop[c]) {
            wheel[(due & wheel_mask) * n_words + c / 64] |=
                (uint64_t)1 << (c % 64);
        }
    }

    int64_t p_master = *I64(W_MASTER);
    int64_t prev_master = *I64(W_PREV_MASTER);
    int64_t p_nreq = *I64(W_N_REQ);
    int64_t p_ntx = *I64(W_N_TX);
    int64_t p_nden = *I64(W_N_DEN);
    double p_gap = *F64(W_GAP);
    if (p_ntx > n || p_nden > n) {
        ret = -4;
        goto done;
    }
    for (int64_t j = 0; j < p_ntx; j++) {
        cur_tx[j] = I64(W_TX_ROWS)[j];
    }
    for (int64_t j = 0; j < p_nden; j++) {
        cur_den[j] = I64(W_DEN_ROWS)[j];
    }

    double wall = *F64(W_WALL);
    double slot_t = *F64(W_SLOT_TIME);
    double gap_t = *F64(W_GAP_TIME);
    int64_t busy = 0, packets = 0, wasted = 0, denials = 0;
    int64_t n_del = 0, n_missed = 0;
    int64_t n_released = 0;
    int64_t s = start_slot;
    int64_t end = start_slot + n_slots;

    while (s < end) {
        /* (a) traffic release: every connection due at s, in the
         * oracle's (slot, source index) polling order. */
        uint64_t *wheel_slot = wheel + (s & wheel_mask) * n_words;
        for (int64_t w = 0; w < n_words; w++) {
            uint64_t bits = wheel_slot[w];
            while (bits) {
                int64_t c = w * 64 + __builtin_ctzll(bits);
                bits &= bits - 1;
                if (conn_due[c] == s) {
                    int64_t row = n_pre + n_released;
                    int64_t node = conn_node[c];
                    int64_t deadline = s + conn_deadline[c];
                    int64_t msg_id = id0 + n_released;
                    if (row >= n_rows || hsz[node] >= heap_cap[node]) {
                        ret = -3;
                        goto done;
                    }
                    m_node[row] = node;
                    m_size[row] = conn_size[c];
                    m_sent[row] = 0;
                    m_deadline[row] = deadline;
                    m_created[row] = s;
                    m_id[row] = msg_id;
                    m_cid[row] = conn_cid[c];
                    m_links[row] = conn_links[c];
                    m_status[row] = ST_PENDING;
                    m_conn[row] = c;
                    Ent e = {deadline, msg_id, row};
                    heap_push(arena + hoff[node], &hsz[node], e);
                    occupied_nodes |= (uint64_t)1 << node;
                    n_released++;
                    uint64_t bit = (uint64_t)1 << (c % 64);
                    wheel_slot[w] &= ~bit;
                    int64_t due = s + conn_period[c];
                    conn_due[c] = due;
                    if (due < conn_stop[c]) {
                        wheel[(due & wheel_mask) * n_words + w] |= bit;
                    }
                }
            }
        }

        /* (b) drop-late: excluded from the closed world. */

        /* (c) execute the pending plan, in grant order. */
        int64_t eff = 0;
        for (int64_t j = 0; j < p_ntx; j++) {
            int64_t row = cur_tx[j];
            if (m_status[row] == ST_DELIVERED) {
                wasted++;
                continue;
            }
            int64_t remaining = m_size[row] - m_sent[row];
            m_sent[row] += 1;
            if (remaining == 1) {
                m_status[row] = ST_DELIVERED;
                m_completed[row] = s;
                int64_t latency = s - m_created[row] + 1;
                int64_t ci = m_cid[row];
                lat[n_del] = latency;
                del_cid[n_del] = ci;
                n_del++;
                cid_delivered[ci]++;
                if (s > m_deadline[row]) {
                    cid_missed[ci]++;
                    n_missed++;
                }
            } else {
                m_status[row] = ST_IN_TRANSIT;
            }
            eff++;
        }
        if (eff) {
            busy++;
            packets += eff;
        }
        denials += p_nden;

        /* (d) per-slot accounting: the oracle's exact double additions. */
        if (p_gap != 0.0) {
            wall += slot_length + p_gap;
            gap_t += p_gap;
        } else {
            wall += slot_length;
        }
        slot_t += slot_length;
        master_count[p_master]++;
        if (p_master == prev_master) {
            hop_count[0]++;
        } else {
            int64_t hop = (p_master - prev_master) % n;
            if (hop < 0) {
                hop += n;
            }
            hop_count[hop]++;
        }

        /* (e) plan the next slot: EDF heads, mapped priorities, grant
         * sweep in (priority desc, node asc) order. */
        int64_t n_active = 0;
        for (uint64_t pend = occupied_nodes; pend; pend &= pend - 1) {
            int64_t i = __builtin_ctzll(pend);
            Ent *heap = arena + hoff[i];
            while (hsz[i] > 0 && m_status[heap[0].row] == ST_DELIVERED) {
                heap_pop(heap, &hsz[i]);
            }
            if (hsz[i] == 0) {
                occupied_nodes &= ~((uint64_t)1 << i);
                continue;
            }
            int64_t row = heap[0].row;
            head_row[i] = row;
            int64_t lax =
                m_deadline[row] - s - (m_size[row] - m_sent[row]) + 1;
            int64_t prio = prio_of_lax[lax <= 0         ? 0
                                       : lax >= lax_cap ? lax_cap
                                                        : lax];
            /* Packed key: descending == (priority desc, node asc). */
            okey[i] = ((uint64_t)prio << 16) | (uint64_t)(0xFFFF - i);
            order[n_active++] = i;
        }

        int64_t q_master, q_nreq = n_active, q_ntx = 0, q_nden = 0;
        double q_gap;
        if (n_active) {
            /* Insertion sort, descending key (n <= 62). */
            for (int64_t a = 1; a < n_active; a++) {
                int64_t node = order[a];
                uint64_t key = okey[node];
                int64_t b = a - 1;
                while (b >= 0 && okey[order[b]] < key) {
                    order[b + 1] = order[b];
                    b--;
                }
                order[b + 1] = node;
            }
            int64_t hp = order[0];
            int64_t break_bit = (hp - 1) % n;
            if (break_bit < 0) {
                break_bit += n;
            }
            uint64_t break_mask = (uint64_t)1 << break_bit;
            uint64_t occupied = 0;
            int64_t granted = 0;
            for (int64_t a = 0; a < n_active; a++) {
                if (granted >= limit) {
                    break;
                }
                int64_t node = order[a];
                uint64_t lk = m_links[head_row[node]];
                if (lk == 0) {
                    continue;
                }
                if (lk & break_mask) {
                    nxt_den[q_nden++] = head_row[node];
                    continue;
                }
                if (occupied & lk) {
                    continue;
                }
                nxt_tx[q_ntx++] = head_row[node];
                occupied |= lk;
                granted++;
            }
            q_master = hp;
            q_gap = gap_matrix[p_master * n + hp];
        } else {
            q_master = p_master;
            q_gap = 0.0;
        }

        /* (g) rotate the pipeline. */
        prev_master = p_master;
        p_master = q_master;
        p_gap = q_gap;
        p_nreq = q_nreq;
        p_ntx = q_ntx;
        p_nden = q_nden;
        int64_t *swap = cur_tx;
        cur_tx = nxt_tx;
        nxt_tx = swap;
        swap = cur_den;
        cur_den = nxt_den;
        nxt_den = swap;
        s++;
    }
    if (n_released != n_rel) {
        ret = -5;
        goto done;
    }

    /* Release rows still live, in row order. */
    int64_t n_live = 0;
    for (int64_t row = n_pre; row < n_rows; row++) {
        if (m_status[row] != ST_DELIVERED) {
            live_rows[n_live++] = row;
        }
    }

    *F64(W_WALL) = wall;
    *F64(W_SLOT_TIME) = slot_t;
    *F64(W_GAP_TIME) = gap_t;
    *F64(W_GAP) = p_gap;
    *I64(W_MASTER) = p_master;
    *I64(W_PREV_MASTER) = prev_master;
    *I64(W_N_REQ) = p_nreq;
    *I64(W_N_TX) = p_ntx;
    *I64(W_N_DEN) = p_nden;
    *I64(W_BUSY) = busy;
    *I64(W_PACKETS) = packets;
    *I64(W_WASTED) = wasted;
    *I64(W_DENIALS) = denials;
    *I64(W_N_DEL) = n_del;
    *I64(W_N_MISSED) = n_missed;
    *I64(W_N_LIVE) = n_live;
    for (int64_t j = 0; j < p_ntx; j++) {
        I64(W_TX_ROWS)[j] = cur_tx[j];
    }
    for (int64_t j = 0; j < p_nden; j++) {
        I64(W_DEN_ROWS)[j] = cur_den[j];
    }

done:
    free(arena);
    free(scratch);
    return ret;
}
