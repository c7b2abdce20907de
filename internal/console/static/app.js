// rfpsim console: a dependency-free single-page app over /console/api/.
// Everything here is plain fetch + DOM; the daemon serves this file from
// its own binary (go:embed), so the console works with no network access
// beyond the daemon itself.
"use strict";

const $ = (id) => document.getElementById(id);

// ---- status tiles -------------------------------------------------------

function tile(label, value, cls) {
  const div = document.createElement("div");
  div.className = "tile" + (cls ? " " + cls : "");
  const v = document.createElement("div");
  v.className = "value";
  v.textContent = value;
  const l = document.createElement("div");
  l.className = "label";
  l.textContent = label;
  div.append(v, l);
  return div;
}

function pct(x) { return (100 * x).toFixed(1) + "%"; }

async function refreshStatus() {
  try {
    const st = await (await fetch("/console/api/status")).json();
    const box = $("status");
    box.replaceChildren(
      tile("workers", st.workers),
      tile("queued", st.jobs_queued, st.jobs_queued >= st.queue_depth ? "warn" : ""),
      tile("running", st.jobs_running),
      tile("tenants queued", st.tenants_queued),
      tile("jobs ok", st.jobs_ok),
      tile("jobs failed", st.jobs_failed + st.jobs_rejected, st.jobs_failed + st.jobs_rejected > 0 ? "warn" : ""),
      tile("cache hit ratio", pct(st.cache_hit_ratio)),
      tile("cache entries", st.cache_entries),
      tile("dedup", st.dedup),
      tile("traces stored", st.traces_stored),
      tile("trace rejects", st.trace_rejects, st.trace_rejects > 0 ? "warn" : ""),
    );
    if (st.fabric) {
      box.append(
        tile("disk entries", st.fabric.disk_entries),
        tile("disk hits", st.fabric.disk_hits),
      );
    }
    if (st.draining) box.append(tile("state", "draining", "warn"));
  } catch (e) {
    $("status").replaceChildren(tile("daemon", "unreachable", "warn"));
  }
}

// ---- workload pickers ---------------------------------------------------

async function refreshWorkloads() {
  const entries = await (await fetch("/console/api/workloads")).json();
  for (const sel of [$("workload"), $("pt-workload")]) {
    const prev = sel.value;
    sel.replaceChildren();
    for (const e of entries) {
      const opt = document.createElement("option");
      opt.value = e.name;
      opt.textContent = e.name + " (" + e.category + (e.uops ? ", " + e.uops + " uops" : "") + ")";
      sel.append(opt);
    }
    if (prev) sel.value = prev;
  }
}

// ---- job submission + log ----------------------------------------------

async function submitJob(ev) {
  ev.preventDefault();
  const req = {
    workload: $("workload").value,
    config: { rfp: $("rfp").checked },
    warmup_uops: Number($("warmup").value),
    measure_uops: Number($("measure").value),
  };
  if ($("sampled").checked) req.sampling = {};
  const res = await fetch("/console/api/jobs", {
    method: "POST",
    headers: { "Content-Type": "application/json" },
    body: JSON.stringify(req),
  });
  if (!res.ok) alert("submit failed: " + (await res.json()).error);
  refreshJobs();
}

async function uploadTrace(ev) {
  ev.preventDefault();
  const file = $("trace-file").files[0];
  if (!file) return;
  const res = await fetch("/v1/traces", { method: "POST", body: await file.arrayBuffer() });
  const body = await res.json();
  $("upload-result").textContent = res.ok
    ? body.workload + " (" + body.uops + " uops" + (body.dedup ? ", dedup" : "") + ")"
    : "rejected: " + body.error;
  refreshWorkloads();
}

async function refreshJobs() {
  const jobs = await (await fetch("/console/api/jobs")).json();
  const body = $("jobs-body");
  body.replaceChildren();
  for (const j of jobs) {
    const tr = document.createElement("tr");
    const links = j.state === "done"
      ? `<a href="/console/api/jobs/${j.id}/csv" download="${j.id}.csv">csv</a> <a href="/console/api/jobs/${j.id}/result">json</a>`
      : "";
    tr.innerHTML =
      `<td class="mono">${j.id}</td><td>${j.workload}</td>` +
      `<td class="state-${j.state}">${j.state}${j.error ? ": " + j.error : ""}</td>` +
      `<td>${j.tier || ""}</td>` +
      `<td>${j.ipc ? j.ipc.toFixed(4) : ""}</td>` +
      `<td>${j.cycles || ""}</td><td>${j.instructions || ""}</td><td>${links}</td>`;
    body.append(tr);
  }
}

// ---- pipeline trace diagram --------------------------------------------

const EVENT_ORDER = ["dispatch", "issue", "commit"];

async function runPipeTrace(ev) {
  ev.preventDefault();
  const req = {
    workload: $("pt-workload").value,
    config: { rfp: $("pt-rfp").checked },
    cycles: Number($("pt-cycles").value),
  };
  const res = await fetch("/console/api/pipetrace", {
    method: "POST",
    headers: { "Content-Type": "application/json" },
    body: JSON.stringify(req),
  });
  const box = $("pipetrace");
  if (!res.ok) {
    box.textContent = "pipetrace failed: " + (await res.json()).error;
    return;
  }
  box.replaceChildren(renderDiagram(await res.json()));
}

// renderDiagram lays events out as a grid: one row per uop (seq), one
// column per cycle, each cell marked with the pipeline stage that touched
// the uop that cycle. RFP events get their own accent so prefetch timing
// is visible against the demand stream.
function renderDiagram(pt) {
  const wrap = document.createElement("div");
  const head = document.createElement("p");
  head.textContent = `${pt.workload} / ${pt.config}: cycles ${pt.from_cycle}..${pt.to_cycle}` +
    ` (${pt.events.length} events${pt.truncated ? ", truncated" : ""})`;
  wrap.append(head);
  if (!pt.events.length) return wrap;

  const seqs = [...new Set(pt.events.filter(e => e.seq).map(e => e.seq))].sort((a, b) => a - b);
  const table = document.createElement("table");
  table.className = "diagram";
  for (const seq of seqs.slice(0, 64)) {
    const evs = pt.events.filter(e => e.seq === seq);
    const tr = document.createElement("tr");
    const th = document.createElement("th");
    const pc = evs.find(e => e.pc);
    th.textContent = `#${seq} ${evs[0].kind || ""} ${pc ? pc.pc : ""}`;
    tr.append(th);
    for (let c = pt.from_cycle; c < pt.to_cycle; c++) {
      const td = document.createElement("td");
      const here = evs.filter(e => e.cycle === c);
      if (here.length) {
        const ev = here.sort((a, b) =>
          EVENT_ORDER.indexOf(a.event) - EVENT_ORDER.indexOf(b.event))[0];
        td.className = "ev ev-" + ev.event.replace(/[^a-z]/g, "");
        td.title = here.map(e => `${e.event} ${e.detail || ""}`).join("\n");
        td.textContent = ev.event[0].toUpperCase();
      }
      tr.append(td);
    }
    table.append(tr);
  }
  wrap.append(table);
  return wrap;
}

// ---- wiring -------------------------------------------------------------

$("submit-form").addEventListener("submit", submitJob);
$("upload-form").addEventListener("submit", uploadTrace);
$("pipetrace-form").addEventListener("submit", runPipeTrace);
refreshStatus();
refreshWorkloads();
refreshJobs();
setInterval(refreshStatus, 2000);
setInterval(refreshJobs, 2000);
