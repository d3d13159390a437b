"""repro — a Python reproduction of L25GC (SIGCOMM 2022).

L25GC is a low-latency 5G core built on a shared-memory NFV platform.
This package re-implements the full system as a calibrated
discrete-event simulation plus real-algorithm components (packet
classifiers, TLV/GTP codecs, serialization formats) whose relative
performance is measured directly.

Subpackages
-----------
``repro.sim``         discrete-event simulation engine
``repro.net``         packets, headers, GTP-U
``repro.core``        shared-memory NFV platform and cost model
``repro.sbi``         service-based interface: messages, codecs, transports
``repro.pfcp``        N4 interface: 3GPP TS 29.244 TLV messages
``repro.classifier``  PDR lookup: linear, TSS, PartitionSort, ClassBench
``repro.cp``          control-plane NFs and 3GPP procedures
``repro.up``          user plane: PDR/FAR pipeline, smart buffering
``repro.ran``         UE / gNB simulator (N1/N2)
``repro.resiliency``  replication, packet logger, failover
``repro.deploy``      Toeplitz RSS, sharded UPF-U and its failover, slices
``repro.baselines``   free5GC and ONVM-UPF comparison systems
``repro.tcpmodel``    TCP dynamics and page-load-time model
``repro.traffic``     generators and measurement tooling
``repro.experiments`` one module per paper figure/table
"""

__version__ = "1.0.0"
